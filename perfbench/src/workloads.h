// The benchmark's three workloads. Each builds its inputs from the seed,
// times its set-up several times, runs an untraced pass for the end-to-end
// metrics and, with Options::trace, a traced pass for the per-layer ones.
#pragma once

#include "support.h"

namespace perfbench {

// feed-open (open_loop) and feed-closed: feed.cc.
Result RunFeed(const Options& opts, bool open_loop);

// replay-trace: replay.cc.
Result RunReplayTrace(const Options& opts);

// Threads a workload runs at once: the generator (or the replay
// dispatcher), the server's event loop, and one worker per shard.
unsigned WorkloadThreads(const Options& opts);

}  // namespace perfbench
