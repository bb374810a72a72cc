// The arena moved to core/chunked_arena.hpp when both planes began to
// share one job store (obs/job_store.hpp); this name keeps the
// simulator's streaming tests compiling against it.
#pragma once

#include "core/chunked_arena.hpp"

namespace qes::sim {

using qes::ChunkedArena;

}  // namespace qes::sim
