// perfbench: the repo benchmark's binary. perfbench/run.py builds
// and runs it; see perfbench/README.md.
//
//   perfbench --workload=fib_fine|fanout_blocked|stencil_observed|all
//             [--seed=N] [--seconds=S] [--trace=0|1] [--trace-out=PREFIX]
//
// Prints one JSON object per workload on stdout. Unknown or mistyped
// flags are rejected with a did-you-mean; so is a sanitizer or
// non-Release build, whose timings would not describe the program.
#include "trace.hpp"
#include "workloads.hpp"

#include <minihpx/util/cli.hpp>

#include <algorithm>
#include <atomic>
#include <cstdio>
#include <cstdlib>
#include <exception>
#include <new>
#include <string>
#include <string_view>
#include <vector>

// ---------------------------------------------------- counting allocator
// Counts every allocation on every thread, runtime workers included;
// runtime.allocs_per_task reads it at traced round boundaries.
namespace {
std::atomic<std::uint64_t> g_allocs{0};
}    // namespace

std::uint64_t perfbench::allocations() noexcept
{
    return g_allocs.load(std::memory_order_relaxed);
}

void* operator new(std::size_t size)
{
    g_allocs.fetch_add(1, std::memory_order_relaxed);
    if (void* p = std::malloc(size ? size : 1))
        return p;
    throw std::bad_alloc();
}

void* operator new(std::size_t size, std::align_val_t align)
{
    g_allocs.fetch_add(1, std::memory_order_relaxed);
    auto const a = static_cast<std::size_t>(align);
    if (void* p = std::aligned_alloc(a, (size + a - 1) / a * a))
        return p;
    throw std::bad_alloc();
}

void operator delete(void* p) noexcept
{
    std::free(p);
}
void operator delete(void* p, std::size_t) noexcept
{
    std::free(p);
}
void operator delete(void* p, std::align_val_t) noexcept
{
    std::free(p);
}
void operator delete(void* p, std::size_t, std::align_val_t) noexcept
{
    std::free(p);
}

namespace {

struct options
{
    std::string workload;
    std::int64_t seed = 1;
    double seconds = 30.0;
    std::int64_t trace = 0;
    std::string trace_out = "perfbench-trace";
};

struct flag
{
    char const* name;
    char const* help;
};

// The one option table: strict checking, --help and parsing all read it.
constexpr flag flags[] = {
    {"workload",
        "fib_fine | fanout_blocked | stencil_observed | all (required)"},
    {"seed", "input seed (default 1)"},
    {"seconds", "length of the measured window (default 30)"},
    {"trace",
        "0: end-to-end metrics; 1: per-layer metrics from a traced run"},
    {"trace-out",
        "traced run: span/round CSV path prefix (default perfbench-trace)"},
    {"help", "print this help"},
};

void print_help(std::FILE* out)
{
    std::fprintf(out, "usage: perfbench --workload=NAME [options]\n");
    for (auto const& f : flags)
        std::fprintf(out, "  --%-10s %s\n", f.name, f.help);
}

std::size_t edit_distance(std::string_view a, std::string_view b)
{
    std::vector<std::size_t> row(b.size() + 1);
    for (std::size_t j = 0; j <= b.size(); ++j)
        row[j] = j;
    for (std::size_t i = 1; i <= a.size(); ++i)
    {
        std::size_t diag = row[0];
        row[0] = i;
        for (std::size_t j = 1; j <= b.size(); ++j)
        {
            std::size_t const up = row[j];
            row[j] = std::min({row[j] + 1, row[j - 1] + 1,
                diag + (a[i - 1] == b[j - 1] ? 0 : 1)});
            diag = up;
        }
    }
    return row[b.size()];
}

// Every token must be --NAME=VALUE (or --help) with NAME in `flags`.
// Returns an error message, or an empty string when argv is valid.
std::string check_argv(int argc, char** argv)
{
    for (int i = 1; i < argc; ++i)
    {
        std::string_view const arg = argv[i];
        if (arg.substr(0, 2) != "--")
            return "unexpected argument '" + std::string(arg) + "'";
        std::string_view const name =
            arg.substr(2, arg.find('=') == std::string_view::npos ?
                    std::string_view::npos :
                    arg.find('=') - 2);
        auto const* known = std::find_if(std::begin(flags), std::end(flags),
            [&](flag const& f) { return name == f.name; });
        if (known == std::end(flags))
        {
            auto const* best = std::min_element(std::begin(flags),
                std::end(flags), [&](flag const& x, flag const& y) {
                    return edit_distance(name, x.name) <
                        edit_distance(name, y.name);
                });
            return "unknown flag '--" + std::string(name) +
                "'; did you mean '--" + best->name + "'?";
        }
        if (name != "help" && arg.find('=') == std::string_view::npos)
            return "flag '--" + std::string(name) + "' needs a value (--" +
                std::string(name) + "=VALUE)";
    }
    return {};
}

options parse(int argc, char** argv)
{
    minihpx::util::cli_args const args(argc, argv);
    options o;
    auto const& names = perfbench::workload_names();
    minihpx::util::option_table table;
    table.add("seed", o.seed)
        .add("trace", o.trace)
        .add_string(
            "workload",
            [&](std::string const& v) {
                o.workload = v;
                return v == "all" ||
                    std::find(names.begin(), names.end(), v) != names.end();
            },
            "fib_fine, fanout_blocked, stencil_observed or all")
        .add_string(
            "seconds",
            [&](std::string const& v) {
                char* end = nullptr;
                o.seconds = std::strtod(v.c_str(), &end);
                return end != v.c_str() && *end == '\0' && o.seconds > 0 &&
                    o.seconds <= 3600;
            },
            "a number of seconds in (0, 3600]")
        .add_string(
            "trace-out",
            [&](std::string const& v) {
                o.trace_out = v;
                return !v.empty();
            },
            "a path prefix");
    table.apply(args);
    if (o.workload.empty())
        throw std::runtime_error("--workload is required");
    if (o.trace != 0 && o.trace != 1)
        throw std::runtime_error("--trace must be 0 or 1");
    return o;
}

bool sanitized_build()
{
#if defined(__SANITIZE_ADDRESS__) || defined(__SANITIZE_THREAD__)
    return true;
#else
    return PERFBENCH_SANITIZE[0] != '\0';
#endif
}

void print_json(perfbench::result const& r, options const& o)
{
    std::printf("{\"workload\": \"%s\", \"seed\": %lld, \"trace\": %lld, "
                "\"seconds\": %.17g, \"correct\": %s, \"attempted\": %llu, "
                "\"failed\": %llu, \"rounds\": %llu, "
                "\"build\": {\"type\": \"%s\", \"sanitizer\": \"%s\"}, "
                "\"metrics\": {",
        r.workload.c_str(), static_cast<long long>(o.seed),
        static_cast<long long>(o.trace), o.seconds,
        r.correct ? "true" : "false",
        static_cast<unsigned long long>(r.attempted),
        static_cast<unsigned long long>(r.failed),
        static_cast<unsigned long long>(r.rounds), PERFBENCH_BUILD_TYPE,
        PERFBENCH_SANITIZE[0] ? PERFBENCH_SANITIZE : "none");
    char const* sep = "";
    for (auto const& m : r.metrics)
    {
        std::printf("%s\"%s\": {\"value\": %.17g, \"unit\": \"%s\"}", sep,
            m.name.c_str(), m.value, m.unit);
        sep = ", ";
    }
    std::printf("}}\n");
    std::fflush(stdout);
}

}    // namespace

int main(int argc, char** argv)
{
    if (std::string const error = check_argv(argc, argv); !error.empty())
    {
        std::fprintf(stderr, "perfbench: %s\n", error.c_str());
        print_help(stderr);
        return 2;
    }
    if (minihpx::util::cli_args(argc, argv).has("help"))
    {
        print_help(stdout);
        return 0;
    }
    if (std::string_view(PERFBENCH_BUILD_TYPE) != "Release" ||
        sanitized_build())
    {
        std::fprintf(stderr,
            "perfbench: refusing to report from a %s build (sanitizer: %s); "
            "configure with -DCMAKE_BUILD_TYPE=Release and no "
            "MINIHPX_SANITIZE\n",
            PERFBENCH_BUILD_TYPE,
            PERFBENCH_SANITIZE[0] ? PERFBENCH_SANITIZE : "none");
        return 3;
    }

    try
    {
        options const o = parse(argc, argv);
        std::vector<std::string> const selected = o.workload == "all" ?
            perfbench::workload_names() :
            std::vector<std::string>{o.workload};
        for (auto const& name : selected)
        {
            auto const r = perfbench::run_workload(name,
                static_cast<std::uint64_t>(o.seed), o.seconds, o.trace != 0,
                o.trace_out + "-" + name);
            print_json(r, o);
        }
    }
    catch (std::exception const& e)
    {
        std::fprintf(stderr, "perfbench: %s\n", e.what());
        return 2;
    }
    return 0;
}
