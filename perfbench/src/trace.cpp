#include "trace.hpp"

#include <minihpx/runtime/scheduler.hpp>
#include <minihpx/util/rng.hpp>

#include <algorithm>
#include <atomic>
#include <cstdio>
#include <memory>
#include <utility>
#include <vector>

namespace perfbench {

namespace {

    struct alignas(64) slot
    {
        std::vector<span> kept;
        std::uint64_t seen = 0;
        std::uint64_t rng_state = 0;
    };

    std::atomic<bool> g_tracing{false};
    std::atomic<std::uint32_t> g_round{0};
    std::vector<std::unique_ptr<slot>> g_slots;
    std::size_t g_capacity = 0;

    double weight(slot const& s) noexcept
    {
        return s.kept.empty() ?
            0.0 :
            static_cast<double>(s.seen) / static_cast<double>(s.kept.size());
    }

}    // namespace

char const* to_string(span_kind kind) noexcept
{
    switch (kind)
    {
    case span_kind::round:
        return "round";
    case span_kind::spawn:
        return "spawn";
    case span_kind::get_wait:
        return "get_wait";
    case span_kind::count_down:
        return "count_down";
    case span_kind::resolve:
        return "resolve";
    case span_kind::evaluate:
        return "evaluate";
    case span_kind::run_graph:
        return "run_graph";
    }
    return "?";
}

bool tracing() noexcept
{
    return g_tracing.load(std::memory_order_relaxed);
}

void set_tracing(bool on) noexcept
{
    g_tracing.store(on, std::memory_order_relaxed);
}

void set_round(std::uint32_t round) noexcept
{
    g_round.store(round, std::memory_order_relaxed);
}

void prepare_spans(unsigned workers, std::size_t capacity)
{
    g_slots.clear();
    g_capacity = capacity;
    for (unsigned i = 0; i <= workers; ++i)
    {
        auto s = std::make_unique<slot>();
        s->kept.reserve(capacity);
        s->rng_state = 0x9e3779b97f4a7c15ull * (i + 1);
        g_slots.push_back(std::move(s));
    }
}

void record(span_kind kind, std::uint64_t start_ns, std::uint64_t end_ns)
{
    if (g_slots.empty())
        return;
    // One slot per worker OS thread; every non-worker thread shares the
    // last slot, and only the main thread records off-worker.
    std::size_t const last = g_slots.size() - 1;
    std::size_t const w = minihpx::scheduler::current_worker_id();
    slot& s = *g_slots[w < last ? w : last];

    span const sp{start_ns, end_ns, g_round.load(std::memory_order_relaxed),
        kind};
    ++s.seen;
    if (s.kept.size() < g_capacity)
    {
        s.kept.push_back(sp);
        return;
    }
    std::uint64_t const j =
        minihpx::util::splitmix64_next(s.rng_state) % s.seen;
    if (j < g_capacity)
        s.kept[j] = sp;
}

double median_ns(span_kind kind)
{
    std::vector<std::pair<double, double>> samples;    // (ns, weight)
    double total = 0.0;
    for (auto const& s : g_slots)
    {
        double const w = weight(*s);
        for (span const& sp : s->kept)
        {
            if (sp.kind != kind)
                continue;
            samples.emplace_back(
                static_cast<double>(sp.end_ns - sp.start_ns), w);
            total += w;
        }
    }
    if (samples.empty())
        return 0.0;
    std::sort(samples.begin(), samples.end());
    double acc = 0.0;
    for (auto const& [ns, w] : samples)
    {
        acc += w;
        if (acc >= total / 2)
            return ns;
    }
    return samples.back().first;
}

bool write_spans(std::string const& path)
{
    std::FILE* f = std::fopen(path.c_str(), "w");
    if (!f)
        return false;
    std::fprintf(f, "kind,round,start_ns,end_ns,weight\n");
    for (auto const& s : g_slots)
    {
        double const w = weight(*s);
        for (span const& sp : s->kept)
            std::fprintf(f, "%s,%u,%llu,%llu,%.6g\n", to_string(sp.kind),
                sp.round, static_cast<unsigned long long>(sp.start_ns),
                static_cast<unsigned long long>(sp.end_ns), w);
    }
    return std::fclose(f) == 0;
}

}    // namespace perfbench
