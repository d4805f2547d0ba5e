// The verification service: HTTP protocol plumbing, the job manager's
// queue/backpressure/drain lifecycle, concurrent submissions (TSan-able),
// crash-recovery via recover(), and checkpoint-resume byte-identity of a
// resumed campaign's report.
#include <arpa/inet.h>
#include <netinet/in.h>
#include <sys/socket.h>
#include <unistd.h>

#include <atomic>
#include <chrono>
#include <cstdio>
#include <filesystem>
#include <fstream>
#include <string>
#include <thread>
#include <vector>

#include <gtest/gtest.h>

#include "serve/http.hpp"
#include "serve/jobs.hpp"
#include "serve/server.hpp"
#include "util/json.hpp"

namespace nonmask {
namespace {

using serve::HttpRequest;
using serve::HttpResponse;
using serve::HttpServer;
using serve::JobInfo;
using serve::JobManager;
using serve::JobState;
using serve::ServeOptions;
using serve::make_handler;

// --- tiny blocking HTTP client (tests only) -------------------------------

struct ClientResponse {
  int status = 0;
  std::string body;
};

ClientResponse http_request(int port, const std::string& method,
                            const std::string& target,
                            const std::string& body = "") {
  const int fd = ::socket(AF_INET, SOCK_STREAM, 0);
  if (fd < 0) return {};
  sockaddr_in addr{};
  addr.sin_family = AF_INET;
  addr.sin_port = htons(static_cast<std::uint16_t>(port));
  ::inet_pton(AF_INET, "127.0.0.1", &addr.sin_addr);
  if (::connect(fd, reinterpret_cast<sockaddr*>(&addr), sizeof(addr)) != 0) {
    ::close(fd);
    return {};
  }
  std::string req = method + " " + target + " HTTP/1.1\r\n" +
                    "Host: 127.0.0.1\r\n" +
                    "Content-Length: " + std::to_string(body.size()) +
                    "\r\nConnection: close\r\n\r\n" + body;
  std::size_t sent = 0;
  while (sent < req.size()) {
    const ssize_t n = ::send(fd, req.data() + sent, req.size() - sent, 0);
    if (n <= 0) break;
    sent += static_cast<std::size_t>(n);
  }
  std::string raw;
  char buf[4096];
  for (;;) {
    const ssize_t n = ::recv(fd, buf, sizeof(buf), 0);
    if (n <= 0) break;
    raw.append(buf, static_cast<std::size_t>(n));
  }
  ::close(fd);
  ClientResponse out;
  if (raw.rfind("HTTP/1.1 ", 0) == 0) {
    out.status = std::atoi(raw.c_str() + 9);
  }
  const std::size_t split = raw.find("\r\n\r\n");
  if (split != std::string::npos) out.body = raw.substr(split + 4);
  return out;
}

std::string fresh_dir(const std::string& tag) {
  const std::string dir =
      testing::TempDir() + "nonmask_serve_" + tag + "_" +
      std::to_string(::getpid());
  std::filesystem::remove_all(dir);
  return dir;
}

// A converging one-variable design carrying the given "job" member.
std::string countdown_spec(const std::string& job) {
  return R"({
  "schema": "nonmask-spec/1",
  "name": "countdown",
  "variables": [{"name": "x", "min": "0", "max": "7"}],
  "constraints": [{"name": "zero", "expr": "x == 0"}],
  "actions": [
    {"name": "step", "kind": "convergence", "guard": "x > 0",
     "assign": {"x": "x - 1"}, "constraint": "0"}
  ],
  "job": )" + job + "\n}";
}

// A fast campaign job.
std::string campaign_spec(int trials, int seed) {
  return countdown_spec(R"({"type": "campaign", "trials": )" +
                        std::to_string(trials) +
                        ", \"seed\": " + std::to_string(seed) +
                        ", \"max_steps\": 1000}");
}

std::string check_spec() { return countdown_spec(R"({"type": "check"})"); }

// Random walks, each deduplicating its states through its own visited set.
std::string falsify_spec() {
  return countdown_spec(
      R"({"type": "falsify", "walks": 20, "walk_length": 50, "seed": 3})");
}

// A campaign that never converges: every trial burns max_steps, so the job
// occupies its worker long enough to test backpressure deterministically.
std::string slow_spec() {
  return R"({
  "schema": "nonmask-spec/1",
  "name": "spinner",
  "variables": [{"name": "x", "min": "0", "max": "3"}],
  "constraints": [{"name": "zero", "expr": "x == 99"}],
  "actions": [
    {"name": "spin", "kind": "convergence", "guard": "1",
     "assign": {"x": "(x + 1) % 4"}, "constraint": "0"}
  ],
  "job": {"type": "campaign", "trials": 8, "max_steps": 400000}
})";
}

JobInfo wait_done(JobManager& mgr, const std::string& id,
                  int timeout_ms = 30000) {
  const auto deadline = std::chrono::steady_clock::now() +
                        std::chrono::milliseconds(timeout_ms);
  for (;;) {
    const auto info = mgr.info(id);
    if (info &&
        (info->state == JobState::kDone || info->state == JobState::kFailed)) {
      return *info;
    }
    if (std::chrono::steady_clock::now() > deadline) {
      ADD_FAILURE() << "job " << id << " did not finish";
      return info ? *info : JobInfo{};
    }
    std::this_thread::sleep_for(std::chrono::milliseconds(5));
  }
}

/// Drop the fields that legitimately differ between two runs of the same
/// job (timestamps, durations, process-global metrics).
std::string strip_volatile(const std::string& report) {
  util::JsonValue doc = util::parse_json(report);
  std::vector<std::pair<std::string, util::JsonValue>> kept;
  for (auto& [k, v] : doc.object) {
    if (k == "started_at" || k == "wall_ms" || k == "metrics") continue;
    kept.emplace_back(k, std::move(v));
  }
  doc.object = std::move(kept);
  return util::dump_json(doc);
}

// --- HTTP layer -----------------------------------------------------------

TEST(HttpServerTest, ServesAndShutsDown) {
  HttpServer server(0);
  ASSERT_GT(server.port(), 0);
  std::thread t([&] {
    server.serve_forever([](const HttpRequest& req) {
      HttpResponse resp;
      resp.body = req.method + " " + req.target + " q=" + req.query +
                  " len=" + std::to_string(req.body.size());
      return resp;
    });
  });
  auto r = http_request(server.port(), "GET", "/echo?a=1");
  EXPECT_EQ(r.status, 200);
  EXPECT_EQ(r.body, "GET /echo q=a=1 len=0");
  r = http_request(server.port(), "POST", "/data", "hello");
  EXPECT_EQ(r.body, "POST /data q= len=5");
  server.shutdown();
  t.join();
}

TEST(HttpServerTest, HandlerExceptionsBecome500) {
  HttpServer server(0);
  std::thread t([&] {
    server.serve_forever([](const HttpRequest&) -> HttpResponse {
      throw std::runtime_error("boom");
    });
  });
  const auto r = http_request(server.port(), "GET", "/");
  EXPECT_EQ(r.status, 500);
  EXPECT_NE(r.body.find("boom"), std::string::npos);
  server.shutdown();
  t.join();
}

TEST(HttpServerTest, SilentClientTimesOutWith408AndLoopKeepsServing) {
  HttpServer server(0);
  server.set_io_timeout(1);
  std::thread t([&] {
    server.serve_forever([](const HttpRequest&) { return HttpResponse{}; });
  });
  // Connect and send nothing: the accept loop must answer 408 and move on
  // instead of blocking in recv() forever.
  const int fd = ::socket(AF_INET, SOCK_STREAM, 0);
  ASSERT_GE(fd, 0);
  sockaddr_in addr{};
  addr.sin_family = AF_INET;
  addr.sin_port = htons(static_cast<std::uint16_t>(server.port()));
  ::inet_pton(AF_INET, "127.0.0.1", &addr.sin_addr);
  ASSERT_EQ(::connect(fd, reinterpret_cast<sockaddr*>(&addr), sizeof(addr)),
            0);
  std::string raw;
  char buf[512];
  for (;;) {
    const ssize_t n = ::recv(fd, buf, sizeof(buf), 0);
    if (n <= 0) break;
    raw.append(buf, static_cast<std::size_t>(n));
  }
  ::close(fd);
  EXPECT_EQ(raw.rfind("HTTP/1.1 408", 0), 0u) << raw;
  // The stalled connection did not wedge the service.
  EXPECT_EQ(http_request(server.port(), "GET", "/").status, 200);
  server.shutdown();
  t.join();
}

TEST(HttpServerTest, ClientDisconnectBeforeResponseDoesNotKillServer) {
  HttpServer server(0);
  std::thread t([&] {
    server.serve_forever([](const HttpRequest&) {
      // Give the peer time to vanish, then answer with a body large enough
      // that send() runs after the RST lands — the EPIPE/SIGPIPE path.
      std::this_thread::sleep_for(std::chrono::milliseconds(20));
      HttpResponse resp;
      resp.body.assign(1 << 20, 'x');
      return resp;
    });
  });
  for (int i = 0; i < 4; ++i) {
    const int fd = ::socket(AF_INET, SOCK_STREAM, 0);
    ASSERT_GE(fd, 0);
    sockaddr_in addr{};
    addr.sin_family = AF_INET;
    addr.sin_port = htons(static_cast<std::uint16_t>(server.port()));
    ::inet_pton(AF_INET, "127.0.0.1", &addr.sin_addr);
    ASSERT_EQ(::connect(fd, reinterpret_cast<sockaddr*>(&addr), sizeof(addr)),
              0);
    const std::string req =
        "GET /big HTTP/1.1\r\nHost: x\r\nContent-Length: 0\r\n\r\n";
    ::send(fd, req.data(), req.size(), 0);
    ::close(fd);  // hang up before the response is written
  }
  // A SIGPIPE would have terminated the whole process; instead the server
  // is still here and serving.
  EXPECT_EQ(http_request(server.port(), "GET", "/after").status, 200);
  server.shutdown();
  t.join();
}

// --- job manager lifecycle ------------------------------------------------

TEST(JobManagerTest, RunsCheckJobToCompletion) {
  ServeOptions opts;
  opts.state_dir = fresh_dir("check");
  JobManager mgr(opts);
  const auto sub = mgr.submit(check_spec());
  ASSERT_EQ(sub.status, 201);
  EXPECT_EQ(sub.id, "job-000001");
  const JobInfo info = wait_done(mgr, sub.id);
  EXPECT_EQ(info.state, JobState::kDone);
  EXPECT_TRUE(info.ok);
  EXPECT_EQ(info.type, "check");
  EXPECT_EQ(info.design, "countdown");
  const std::string report = mgr.report_json(sub.id);
  ASSERT_FALSE(report.empty());
  const util::JsonValue doc = util::parse_json(report);
  ASSERT_NE(doc.find("spec"), nullptr);
  EXPECT_EQ(doc.find("spec")->find("name")->string_value, "countdown");
  ASSERT_NE(doc.find("convergence"), nullptr);
  mgr.drain();
}

// A report carries only its own job's data: a check job run after a
// falsify job (whose walks build and drop visited sets) has exactly the
// sections a check report has, nothing the earlier job left behind.
TEST(JobManagerTest, CheckAfterFalsifyReportsOnlyItsOwnSections) {
  ServeOptions opts;
  opts.state_dir = fresh_dir("per_job");
  opts.workers = 1;
  JobManager mgr(opts);
  const auto falsify = mgr.submit(falsify_spec());
  ASSERT_EQ(falsify.status, 201);
  ASSERT_EQ(wait_done(mgr, falsify.id).state, JobState::kDone);
  const auto check = mgr.submit(check_spec());
  ASSERT_EQ(check.status, 201);
  ASSERT_EQ(wait_done(mgr, check.id).state, JobState::kDone);

  const util::JsonValue doc = util::parse_json(mgr.report_json(check.id));
  std::vector<std::string> keys;
  for (const auto& [key, value] : doc.object) keys.push_back(key);
  EXPECT_EQ(keys, (std::vector<std::string>{
                      "tool", "design", "started_at", "wall_ms", "spec",
                      "store_backend", "state_budget", "closure_S",
                      "closure_T", "convergence", "metrics"}));
  mgr.drain();
}

// A spec whose action writes outside its variable's domain compiles, so it
// is accepted; its check then fails naming the variable, and the worker
// goes on to the next job.
TEST(JobManagerTest, OutOfDomainWriteFailsTheJobNotTheServer) {
  ServeOptions opts;
  opts.state_dir = fresh_dir("out_of_domain");
  opts.workers = 1;
  JobManager mgr(opts);
  const auto bad = mgr.submit(R"({
  "schema": "nonmask-spec/1",
  "name": "escape",
  "variables": [{"name": "a", "min": 0, "max": 3},
                {"name": "b", "min": 0, "max": 3}],
  "constraints": [{"name": "zero", "expr": "b == 0"}],
  "actions": [
    {"name": "bump", "kind": "convergence", "guard": "b != 0",
     "assign": {"b": "b + 100"}, "constraint": "0"}
  ],
  "job": {"type": "check"}
})");
  ASSERT_EQ(bad.status, 201);
  const JobInfo failed = wait_done(mgr, bad.id);
  EXPECT_EQ(failed.state, JobState::kFailed);
  EXPECT_NE(failed.summary.find("'b'"), std::string::npos) << failed.summary;
  EXPECT_NE(failed.summary.find("outside its domain"), std::string::npos)
      << failed.summary;

  const auto good = mgr.submit(check_spec());
  ASSERT_EQ(good.status, 201);
  const JobInfo done = wait_done(mgr, good.id);
  EXPECT_EQ(done.state, JobState::kDone);
  EXPECT_TRUE(done.ok);
  mgr.drain();
}

TEST(JobManagerTest, RejectsInvalidSpecsWith422) {
  ServeOptions opts;
  opts.state_dir = fresh_dir("invalid");
  JobManager mgr(opts);
  EXPECT_EQ(mgr.submit("this is not json").status, 422);
  EXPECT_EQ(mgr.submit("{\"schema\": \"nonmask-spec/1\"}").status, 422);
  // Nothing was persisted for rejected submissions.
  EXPECT_TRUE(mgr.list().empty());
  mgr.drain();
}

TEST(JobManagerTest, BackpressureAndDrainRejection) {
  ServeOptions opts;
  opts.state_dir = fresh_dir("backpressure");
  opts.workers = 1;
  opts.max_queue = 1;
  JobManager mgr(opts);
  // Occupy the single worker, give it time to dequeue, then fill the queue.
  ASSERT_EQ(mgr.submit(slow_spec()).status, 201);
  std::this_thread::sleep_for(std::chrono::milliseconds(200));
  EXPECT_EQ(mgr.submit(check_spec()).status, 201);  // queued (1/1)
  EXPECT_EQ(mgr.submit(check_spec()).status, 429);  // queue full
  mgr.drain();
  EXPECT_EQ(mgr.submit(check_spec()).status, 503);  // draining
  EXPECT_EQ(mgr.pending(), 0u);
}

TEST(JobManagerTest, ConcurrentSubmissionsAllComplete) {
  ServeOptions opts;
  opts.state_dir = fresh_dir("concurrent");
  opts.workers = 4;
  JobManager mgr(opts);
  std::vector<std::thread> threads;
  std::vector<std::string> ids(8);
  std::atomic<int> failures{0};
  for (int t = 0; t < 4; ++t) {
    threads.emplace_back([&, t] {
      for (int i = 0; i < 2; ++i) {
        const auto sub = mgr.submit(campaign_spec(10, 100 + t * 2 + i));
        if (sub.status != 201) {
          ++failures;
        } else {
          ids[static_cast<std::size_t>(t * 2 + i)] = sub.id;
        }
      }
    });
  }
  for (auto& t : threads) t.join();
  EXPECT_EQ(failures.load(), 0);
  for (const auto& id : ids) {
    ASSERT_FALSE(id.empty());
    const JobInfo info = wait_done(mgr, id);
    EXPECT_EQ(info.state, JobState::kDone);
    EXPECT_TRUE(info.ok) << info.summary;
  }
  EXPECT_EQ(mgr.list().size(), 8u);
  mgr.drain();
}

// --- crash recovery + checkpoint resume -----------------------------------

TEST(JobManagerTest, RecoverReenqueuesPersistedSpecs) {
  const std::string dir = fresh_dir("recover");
  std::string id;
  std::string baseline;
  {
    ServeOptions opts;
    opts.state_dir = dir;
    JobManager mgr(opts);
    const auto sub = mgr.submit(campaign_spec(30, 7));
    ASSERT_EQ(sub.status, 201);
    id = sub.id;
    const JobInfo info = wait_done(mgr, id);
    ASSERT_EQ(info.state, JobState::kDone);
    baseline = mgr.report_json(id);
    ASSERT_FALSE(baseline.empty());
    mgr.drain();
  }

  // Simulate a crash after the checkpoint was written but before the
  // report landed: delete the report, keep spec + checkpoint journal.
  ASSERT_TRUE(std::filesystem::remove(dir + "/" + id + ".report.json"));
  ASSERT_TRUE(std::filesystem::exists(dir + "/" + id + ".checkpoint.jsonl"));

  ServeOptions opts;
  opts.state_dir = dir;
  JobManager mgr(opts);
  ASSERT_EQ(mgr.recover(), 1u);
  const auto info = wait_done(mgr, id);
  EXPECT_EQ(info.state, JobState::kDone);
  EXPECT_TRUE(info.recovered);
  const std::string resumed = mgr.report_json(id);
  ASSERT_FALSE(resumed.empty());
  // The resumed run replays the journal's completed prefix, so its report
  // is byte-identical to the uninterrupted one (modulo timestamps).
  EXPECT_EQ(strip_volatile(resumed), strip_volatile(baseline));
  // New submissions continue past the recovered id.
  const auto sub = mgr.submit(check_spec());
  ASSERT_EQ(sub.status, 201);
  EXPECT_EQ(sub.id, "job-000002");
  wait_done(mgr, sub.id);
  mgr.drain();
}

// --- the full HTTP surface ------------------------------------------------

TEST(ServeRoutesTest, EndToEndSubmitPollReport) {
  ServeOptions opts;
  opts.state_dir = fresh_dir("routes");
  opts.workers = 2;
  JobManager mgr(opts);
  HttpServer server(0);
  std::thread t([&] { server.serve_forever(make_handler(mgr)); });

  auto health = http_request(server.port(), "GET", "/healthz");
  EXPECT_EQ(health.status, 200);
  EXPECT_NE(health.body.find("\"status\": \"ok\""), std::string::npos);

  // Submission errors surface as HTTP statuses.
  EXPECT_EQ(http_request(server.port(), "POST", "/jobs", "{oops").status, 422);
  EXPECT_EQ(http_request(server.port(), "DELETE", "/jobs").status, 405);
  EXPECT_EQ(http_request(server.port(), "GET", "/jobs/job-000099").status,
            404);
  EXPECT_EQ(http_request(server.port(), "GET", "/nowhere").status, 404);

  const auto posted =
      http_request(server.port(), "POST", "/jobs", campaign_spec(20, 3));
  ASSERT_EQ(posted.status, 201);
  const util::JsonValue ack = util::parse_json(posted.body);
  ASSERT_NE(ack.find("id"), nullptr);
  const std::string id = ack.find("id")->string_value;
  EXPECT_EQ(ack.find("location")->string_value, "/jobs/" + id);

  // Poll the status endpoint until the job lands.
  std::string state;
  for (int i = 0; i < 2000 && state != "done" && state != "failed"; ++i) {
    const auto status = http_request(server.port(), "GET", "/jobs/" + id);
    EXPECT_EQ(status.status, 200);
    state = util::parse_json(status.body).find("state")->string_value;
    if (state != "done") {
      std::this_thread::sleep_for(std::chrono::milliseconds(5));
    }
  }
  EXPECT_EQ(state, "done");

  const auto report = http_request(server.port(), "GET",
                                   "/jobs/" + id + "/report");
  ASSERT_EQ(report.status, 200);
  // The served report is exactly the manager's artifact...
  EXPECT_EQ(report.body, mgr.report_json(id));
  // ...and carries the spec provenance block.
  const util::JsonValue doc = util::parse_json(report.body);
  ASSERT_NE(doc.find("spec"), nullptr);
  EXPECT_NE(doc.find("spec")->find("content_hash"), nullptr);

  // The jobs index lists it.
  const auto listing = http_request(server.port(), "GET", "/jobs");
  EXPECT_NE(listing.body.find(id), std::string::npos);

  server.shutdown();
  t.join();
  mgr.drain();
}

// Nesting past the parsers' depth limits — 200,000 '[' (a 400 KB body,
// far under the request cap) or a constraint of 300,000 '!' — is a 422 at
// submit, and the accept loop that parsed it keeps serving.
TEST(ServeRoutesTest, DeeplyNestedSubmissionsAre422AndServerStaysUp) {
  ServeOptions opts;
  opts.state_dir = fresh_dir("nesting");
  opts.workers = 1;
  JobManager mgr(opts);
  HttpServer server(0);
  std::thread t([&] { server.serve_forever(make_handler(mgr)); });

  const auto deep_json = http_request(server.port(), "POST", "/jobs",
                                      std::string(200'000, '['));
  EXPECT_EQ(deep_json.status, 422);
  EXPECT_NE(deep_json.body.find("nesting deeper than"), std::string::npos);

  std::string deep_expr = check_spec();
  deep_expr.replace(deep_expr.find("x == 0"), 6,
                    std::string(300'000, '!') + "x");
  const auto rejected =
      http_request(server.port(), "POST", "/jobs", deep_expr);
  EXPECT_EQ(rejected.status, 422);
  EXPECT_NE(rejected.body.find("nested deeper than"), std::string::npos);

  EXPECT_EQ(http_request(server.port(), "GET", "/healthz").status, 200);
  const auto posted =
      http_request(server.port(), "POST", "/jobs", check_spec());
  ASSERT_EQ(posted.status, 201);
  const std::string id = util::parse_json(posted.body).find("id")->string_value;
  EXPECT_EQ(wait_done(mgr, id).state, JobState::kDone);

  server.shutdown();
  t.join();
  mgr.drain();
}

TEST(ServeRoutesTest, ReportBeforeCompletionIs404) {
  ServeOptions opts;
  opts.state_dir = fresh_dir("notready");
  opts.workers = 1;
  opts.max_queue = 4;
  JobManager mgr(opts);
  HttpServer server(0);
  std::thread t([&] { server.serve_forever(make_handler(mgr)); });
  // Occupy the worker so the next job stays queued.
  ASSERT_EQ(mgr.submit(slow_spec()).status, 201);
  std::this_thread::sleep_for(std::chrono::milliseconds(100));
  const auto posted =
      http_request(server.port(), "POST", "/jobs", check_spec());
  ASSERT_EQ(posted.status, 201);
  const std::string id = util::parse_json(posted.body).find("id")->string_value;
  const auto report =
      http_request(server.port(), "GET", "/jobs/" + id + "/report");
  EXPECT_EQ(report.status, 404);
  EXPECT_NE(report.body.find("report not ready"), std::string::npos);
  server.shutdown();
  t.join();
  mgr.drain();
}

}  // namespace
}  // namespace nonmask
