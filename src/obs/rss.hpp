// Process memory sampling, shared by the telemetry sampler, the bench
// mains, and the scale-probe CLI. Both figures are read from procfs, so
// each is this process's own: getrusage's ru_maxrss would carry a
// parent's peak across fork + exec.
#pragma once

namespace nonmask::obs {

/// Peak resident set size in MiB: VmHWM from /proc/self/status. Returns
/// 0.0 where procfs is unavailable — callers treat 0 as "unknown".
double peak_rss_mb();

/// Current resident set size in MiB, read from /proc/self/statm. Returns
/// 0.0 where procfs is unavailable — callers treat 0 as "unknown".
double current_rss_mb();

}  // namespace nonmask::obs
