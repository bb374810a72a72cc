// Pull interface for job traces.
//
// A JobStream yields jobs one at a time in arrival order — the same
// contract the vector-returning workload generators satisfy (dense ids
// 1..n, agreeable deadlines), without materializing the whole trace.
// sim::Engine can consume a stream directly and store only the live
// window of job states (src/obs/job_store.hpp), which is what keeps the
// 10M-job scenario cells inside a few hundred MB of RSS instead of
// holding every Job + JobState for the full run.
//
// The synthetic generators in src/workload/stream.hpp implement this
// interface with the EXACT RNG call order of the batch generators, so a
// drained stream is byte-identical to the corresponding generate_*()
// vector (tests/workload_stream_test.cpp pins this).
#pragma once

#include <optional>

#include "core/job.hpp"

namespace qes {

class JobStream {
 public:
  virtual ~JobStream() = default;

  /// The next job in arrival order, or nullopt when the trace is
  /// exhausted. Exhaustion is terminal: every later call must also
  /// return nullopt (and must not consume further RNG draws).
  [[nodiscard]] virtual std::optional<Job> next() = 0;
};

}  // namespace qes
