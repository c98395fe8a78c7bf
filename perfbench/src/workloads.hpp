// The benchmark's three closed-loop workloads and the measurement loop
// shared by all of them (see perfbench/README.md for why each exists).
#pragma once

#include <cstdint>
#include <string>
#include <vector>

namespace perfbench {

struct metric
{
    std::string name;
    double value = 0.0;
    char const* unit = "";
};

struct result
{
    std::string workload;
    bool correct = true;
    std::uint64_t attempted = 0;    // rounds run, set-up warm-up included
    std::uint64_t failed = 0;       // wrong result or exceptional future
    std::uint64_t rounds = 0;       // measured rounds
    // End-to-end metrics in the untraced run, per-layer in the traced one.
    std::vector<metric> metrics;
};

std::vector<std::string> const& workload_names();

// Set up `name` several times, then run closed-loop rounds on the last
// set-up for `seconds`. With `trace`, every other round is traced and
// the spans (and per-round counter deltas) are written to
// `trace_out`.spans.csv / .rounds.csv.
result run_workload(std::string const& name, std::uint64_t seed,
    double seconds, bool trace, std::string const& trace_out);

}    // namespace perfbench
