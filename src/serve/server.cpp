#include "serve/server.hpp"

#include "obs/telemetry.hpp"
#include "util/json.hpp"

namespace nonmask::serve {

namespace {

using util::jarr;
using util::jbool;
using util::jint;
using util::jobj;
using util::jstr;
using util::JsonValue;

HttpResponse json_response(int status, JsonValue body) {
  HttpResponse resp;
  resp.status = status;
  resp.body = util::dump_json(body);
  return resp;
}

HttpResponse error_response(int status, const std::string& message) {
  JsonValue body = jobj();
  body.add("error", jstr(message));
  return json_response(status, std::move(body));
}

JsonValue info_value(const JobInfo& info) {
  JsonValue v = jobj();
  v.add("id", jstr(info.id));
  v.add("state", jstr(to_string(info.state)));
  v.add("type", jstr(info.type));
  v.add("design", jstr(info.design));
  if (info.state == JobState::kDone) v.add("ok", jbool(info.ok));
  v.add("summary", jstr(info.summary));
  v.add("submitted_ms", jint(static_cast<std::int64_t>(info.submitted_ms)));
  v.add("started_ms", jint(static_cast<std::int64_t>(info.started_ms)));
  v.add("finished_ms", jint(static_cast<std::int64_t>(info.finished_ms)));
  v.add("recovered", jbool(info.recovered));
  return v;
}

}  // namespace

std::string job_status_json(const JobManager& manager, const JobInfo& info,
                            std::size_t telemetry_tail) {
  (void)manager;
  JsonValue v = info_value(info);
  if (obs::Telemetry::running() && telemetry_tail > 0) {
    // Heartbeat tail: the service-wide sampler's most recent samples, so a
    // poll shows live throughput without waiting for the final report.
    JsonValue tail = jarr();
    for (const auto& s : obs::Telemetry::samples_tail(telemetry_tail)) {
      JsonValue hb = jobj();
      hb.add("seq", jint(static_cast<std::int64_t>(s.seq)));
      hb.add("t_ms", jint(static_cast<std::int64_t>(s.t_ms)));
      hb.add("states_explored",
             jint(static_cast<std::int64_t>(s.states_explored)));
      hb.add("campaign_trials",
             jint(static_cast<std::int64_t>(s.counter("campaign.trials"))));
      hb.add("workers", jint(s.workers));
      tail.push(std::move(hb));
    }
    v.add("telemetry", std::move(tail));
  }
  return util::dump_json(v);
}

HttpServer::Handler make_handler(JobManager& manager) {
  return [&manager](const HttpRequest& req) -> HttpResponse {
    if (req.target == "/healthz") {
      if (req.method != "GET") return error_response(405, "GET only");
      JsonValue v = jobj();
      v.add("status", jstr("ok"));
      v.add("pending", jint(static_cast<std::int64_t>(manager.pending())));
      return json_response(200, std::move(v));
    }

    if (req.target == "/jobs") {
      if (req.method == "POST") {
        const auto result = manager.submit(req.body);
        if (result.status != 201) {
          return error_response(result.status, result.error);
        }
        JsonValue v = jobj();
        v.add("id", jstr(result.id));
        v.add("location", jstr("/jobs/" + result.id));
        return json_response(201, std::move(v));
      }
      if (req.method == "GET") {
        JsonValue v = jobj();
        JsonValue arr = jarr();
        for (const auto& info : manager.list()) {
          arr.push(info_value(info));
        }
        v.add("jobs", std::move(arr));
        return json_response(200, std::move(v));
      }
      return error_response(405, "GET or POST");
    }

    const std::string prefix = "/jobs/";
    if (req.target.rfind(prefix, 0) == 0) {
      if (req.method != "GET") return error_response(405, "GET only");
      std::string rest = req.target.substr(prefix.size());
      std::string leaf;
      const std::size_t slash = rest.find('/');
      if (slash != std::string::npos) {
        leaf = rest.substr(slash + 1);
        rest.resize(slash);
      }
      const auto info = manager.info(rest);
      if (!info) return error_response(404, "no such job: " + rest);

      if (leaf.empty()) {
        HttpResponse resp;
        resp.body = job_status_json(manager, *info);
        return resp;
      }
      if (leaf == "report") {
        const std::string report = manager.report_json(rest);
        if (report.empty()) {
          return error_response(404, "report not ready (state " +
                                         std::string(to_string(info->state)) +
                                         ")");
        }
        HttpResponse resp;
        resp.body = report;
        return resp;
      }
      if (leaf == "dashboard") {
        const std::string html = manager.dashboard_html(rest);
        if (html.empty()) return error_response(404, "no dashboard");
        HttpResponse resp;
        resp.content_type = "text/html";
        resp.body = html;
        return resp;
      }
      return error_response(404, "unknown resource: " + leaf);
    }

    return error_response(404, "unknown path: " + req.target);
  };
}

}  // namespace nonmask::serve
