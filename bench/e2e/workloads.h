// The four workloads.  Each runs in its own process, drives the real
// layers through their public APIs, checks every output, and returns its
// metrics (see README.md for what each one measures and why it exists).
#pragma once

#include "common.h"

namespace causeway::bench {

Result run_live(const Options& opt);
Result run_fanin(const Options& opt);
Result run_query(const Options& opt);
Result run_mixed(const Options& opt);

}  // namespace causeway::bench
