// Route layer of the verification service: maps the HTTP surface onto the
// JobManager.
//
//   POST /jobs                submit a spec document; 201 {"id": ...}
//   GET  /jobs                all jobs, newest last
//   GET  /jobs/<id>           status + result summary + telemetry tail
//   GET  /jobs/<id>/report    the finished RunReport document
//   GET  /jobs/<id>/dashboard the job's telemetry dashboard (HTML)
//   GET  /healthz             liveness + queue depth
//
// The handler is synchronous and cheap: submissions validate + enqueue,
// queries read the job table and artifact files. All verification work
// happens on the JobManager's worker pool.
#pragma once

#include "serve/http.hpp"
#include "serve/jobs.hpp"

namespace nonmask::serve {

/// Build the request handler for `manager`. The manager must outlive the
/// returned handler.
HttpServer::Handler make_handler(JobManager& manager);

}  // namespace nonmask::serve
