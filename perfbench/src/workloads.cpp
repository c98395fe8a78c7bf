#include "workloads.hpp"

#include "trace.hpp"

#include <minihpx/engine/engine.hpp>
#include <minihpx/minihpx.hpp>
#include <minihpx/papi/papi_engine.hpp>
#include <minihpx/perf/perf.hpp>
#include <minihpx/taskbench/taskbench.hpp>
#include <minihpx/telemetry/session.hpp>
#include <minihpx/util/rng.hpp>

#include <algorithm>
#include <cstdio>
#include <memory>
#include <stdexcept>
#include <utility>

#include <sys/resource.h>

namespace perfbench {

namespace {

    namespace tb = minihpx::taskbench;
    using minihpx::perf::counter_handle;
    using minihpx::perf::counter_registry;

    // Set-ups per run; setup_s is their median.
    constexpr unsigned setups = 5;
    // Spans kept per thread slot (24 bytes each).
    constexpr std::size_t span_capacity = std::size_t(1) << 15;

    std::uint64_t mix(std::uint64_t a, std::uint64_t b) noexcept
    {
        std::uint64_t state = a ^ (b * 0xd1b54a32d192ed03ull);
        return minihpx::util::splitmix64_next(state);
    }

    struct usage
    {
        std::uint64_t minflt = 0;
        std::uint64_t nivcsw = 0;

        static usage now() noexcept
        {
            rusage ru{};
            getrusage(RUSAGE_SELF, &ru);
            return {static_cast<std::uint64_t>(ru.ru_minflt),
                static_cast<std::uint64_t>(ru.ru_nivcsw)};
        }
    };

    // Peak resident set since the last reset_peak_rss(), from VmHWM.
    // (ru_maxrss cannot be reset, and Linux carries it across execve.)
    double peak_rss_mb()
    {
        std::FILE* f = std::fopen("/proc/self/status", "r");
        if (!f)
            throw std::runtime_error("cannot read /proc/self/status");
        char line[256];
        double kb = 0.0;
        while (std::fgets(line, sizeof line, f))
            if (std::sscanf(line, "VmHWM: %lf kB", &kb) == 1)
                break;
        std::fclose(f);
        if (kb <= 0.0)
            throw std::runtime_error("no VmHWM in /proc/self/status");
        return kb / 1024.0;
    }

    void reset_peak_rss()
    {
        std::FILE* f = std::fopen("/proc/self/clear_refs", "w");
        bool ok = f && std::fputs("5", f) >= 0;
        ok = (f && std::fclose(f) == 0) && ok;
        if (!ok)
            throw std::runtime_error(
                "cannot reset the peak RSS through /proc/self/clear_refs");
    }

    double percentile(std::vector<double> v, double p)
    {
        if (v.empty())
            return 0.0;
        std::sort(v.begin(), v.end());
        double const rank = p / 100.0 * static_cast<double>(v.size() - 1);
        auto const lo = static_cast<std::size_t>(rank);
        std::size_t const hi = std::min(lo + 1, v.size() - 1);
        return v[lo] + (v[hi] - v[lo]) * (rank - static_cast<double>(lo));
    }

    // The task_ns that makes Task Bench spin for `ns` of real time.
    // The library converts ns to spin iterations with a rate it
    // measures once per process from a single ~1 ms block, which one
    // host preemption can shorten, and then every task of the run is
    // short. Re-measure the rate as the median of nine such blocks and
    // scale by it. The first call must come before any worker thread
    // exists, so both measurements have the CPUs to themselves.
    std::uint64_t real_task_ns(std::uint64_t ns)
    {
        static double const scale = [] {
            double const library_per_us =
                static_cast<double>(tb::spin_iters_per_us());
            constexpr std::uint64_t block = 2'000'000;
            std::vector<double> per_us;
            std::uint64_t x = 1;
            for (int i = 0; i != 9; ++i)
            {
                std::uint64_t const t0 = now_ns();
                x = tb::spin_chunk(x, block);
                per_us.push_back(
                    static_cast<double>(block) * 1e3 /
                    static_cast<double>(now_ns() - t0));
            }
            volatile std::uint64_t sink = x;
            (void) sink;
            return percentile(per_us, 50) / library_per_us;
        }();
        return static_cast<std::uint64_t>(
            static_cast<double>(ns) * scale + 0.5);
    }

    counter_handle resolve(counter_registry const& registry, char const* name)
    {
        std::string error;
        counter_handle h = timed(
            span_kind::resolve, [&] { return registry.resolve(name, &error); });
        if (!h)
            throw std::runtime_error(
                std::string("cannot resolve ") + name + ": " + error);
        return h;
    }

    double evaluate(counter_handle const& h, bool reset = false)
    {
        return timed(span_kind::evaluate, [&] { return h.evaluate(reset); })
            .get();
    }

    // ---------------------------------------------------------------
    // Counters the traced run reads at round boundaries. Resolved in
    // every set-up, traced or not, so set-up does the same work in both.
    struct layer_counters
    {
        explicit layer_counters(counter_registry const& r)
          : tasks(resolve(r, "/threads{locality#0/total}/count/cumulative"))
          , exec_ns(resolve(r, "/threads{locality#0/total}/time/cumulative"))
          , overhead_ns(resolve(
                r, "/threads{locality#0/total}/time/cumulative-overhead"))
          , task_avg(resolve(r, "/threads{locality#0/total}/time/average"))
          , overhead_avg(resolve(
                r, "/threads{locality#0/total}/time/average-overhead"))
          , idle_rate(resolve(r, "/threads{locality#0/total}/idle-rate"))
          , stolen(resolve(r, "/threads{locality#0/total}/count/stolen"))
          , objects(resolve(r, "/threads{locality#0/total}/count/objects"))
          , frame_hits(resolve(
                r, "/runtime{locality#0/total}/memory/frame-recycle-hits"))
        {
        }

        // Descriptor objects alive; sampled at every traced boundary,
        // including the one inside a round where a burst is blocked.
        void observe_objects()
        {
            if (tracing())
                objects_max = std::max(objects_max, evaluate(objects));
        }

        counter_handle tasks, exec_ns, overhead_ns, task_avg, overhead_avg,
            idle_rate, stolen, objects, frame_hits;
        double objects_max = 0.0;
    };

    // Counts a round-completion latch down when the task that owns it
    // ends, normally or by exception, so the waiting root always wakes.
    struct release_on_exit
    {
        minihpx::latch& done;

        ~release_on_exit()
        {
            timed(span_kind::count_down, [&] { done.count_down(1); });
        }
    };

    // ---------------------------------------------------------------
    class workload
    {
    public:
        virtual ~workload() = default;

        // Tasks one round spawns (the throughput numerator).
        virtual std::uint64_t tasks_per_round() const = 0;
        // One closed-loop round, run on the root task; false when its
        // result is wrong.
        virtual bool round(std::uint32_t r) = 0;
        // Called on the root task once per set-up, before warm-up.
        virtual void prepare() {}

        // Observed-layer hooks (only stencil_observed has these layers).
        virtual void window_begin() {}
        virtual void layer_metrics(double /*window_s*/,
            std::vector<metric>& out) const
        {
            out.push_back({"telemetry.sample_rate_ratio", 0.0, "ratio"});
            out.push_back({"telemetry.drop_frac", 0.0, "ratio"});
            out.push_back({"taskbench.efficiency", 0.0, "ratio"});
        }
    };

    // fib_fine: recursive fib with an empty body, the paper's "very
    // fine" grain. Few descriptors are alive at once, so it bypasses
    // the descriptor-trim cliff. Inputs: seeded generalized Fibonacci
    // G(0)=a, G(1)=b, so every seed does the same task tree.
    class fib_fine final : public workload
    {
    public:
        static constexpr unsigned n = 22;

        explicit fib_fine(std::uint64_t seed) : seed_(seed) {}

        std::uint64_t tasks_per_round() const override
        {
            // A(k) = 1 + A(k-1) + A(k-2) spawns, plus the round task.
            std::uint64_t a0 = 0, a1 = 0;
            for (unsigned k = 2; k <= n; ++k)
                a0 = std::exchange(a1, 1 + a1 + a0);
            return a1 + 1;
        }

        bool round(std::uint32_t r) override
        {
            std::uint64_t const a = mix(seed_, 2 * std::uint64_t(r));
            std::uint64_t const b = mix(seed_, 2 * std::uint64_t(r) + 1);

            // Round completion is signalled through a latch, so the
            // single-waiter count_down is priced on this workload too.
            minihpx::latch done(1);
            std::uint64_t value = 0;
            auto f = timed(span_kind::spawn, [&] {
                return minihpx::async([&] {
                    release_on_exit release{done};
                    value = fib(n, a, b);
                });
            });
            done.wait();
            timed(span_kind::get_wait, [&] { f.get(); });
            return value == serial(a, b);
        }

    private:
        static std::uint64_t fib(unsigned k, std::uint64_t a, std::uint64_t b)
        {
            if (k < 2)
                return k == 0 ? a : b;
            auto f = timed(span_kind::spawn,
                [&] { return minihpx::async(&fib, k - 1, a, b); });
            std::uint64_t const y = fib(k - 2, a, b);
            return timed(span_kind::get_wait, [&] { return f.get(); }) + y;
        }

        static std::uint64_t serial(std::uint64_t a, std::uint64_t b)
        {
            for (unsigned k = 2; k <= n; ++k)
                a = std::exchange(b, a + b);
            return b;
        }

        std::uint64_t seed_;
    };

    // fanout_blocked: a burst of `burst` tasks all blocked on one latch,
    // then one count_down wakes them all. The burst is above the
    // default 1024-descriptor cache cap (descriptors and their stacks
    // are trimmed and re-mapped every round) and far below the ~30 k
    // blocked-task abort.
    class fanout_blocked final : public workload
    {
    public:
        static constexpr unsigned burst = 4096;

        fanout_blocked(std::uint64_t seed, layer_counters& counters)
          : seed_(seed)
          , counters_(counters)
        {
            futures_.reserve(burst);
        }

        std::uint64_t tasks_per_round() const override { return burst; }

        bool round(std::uint32_t r) override
        {
            std::uint64_t const key = mix(seed_, r);
            minihpx::latch gate(1);
            futures_.clear();
            for (unsigned i = 0; i != burst; ++i)
                futures_.push_back(timed(span_kind::spawn, [&] {
                    return minihpx::async([&gate, key, i] {
                        gate.wait();
                        return mix(key, i);
                    });
                }));
            counters_.observe_objects();
            timed(span_kind::count_down, [&] { gate.count_down(1); });

            // Join every task, even past an exceptional future: the
            // gate lives on this stack.
            bool ok = true;
            std::uint64_t sum = 0, expected = 0;
            for (unsigned i = 0; i != burst; ++i)
            {
                try
                {
                    sum += timed(span_kind::get_wait,
                        [&] { return futures_[i].get(); });
                }
                catch (std::exception const&)
                {
                    ok = false;
                }
                expected += mix(key, i);
            }
            return ok && sum == expected;
        }

    private:
        std::uint64_t seed_;
        layer_counters& counters_;
        std::vector<minihpx::future<std::uint64_t>> futures_;
    };

    // stencil_observed: Task Bench stencil-1d at a fixed 4 us grain with
    // the paper's §V-C observers running — the virtual PMU installed
    // and a telemetry session streaming /threads and /papi counters
    // every 10 ms — while the root reads counters after each graph.
    class stencil_observed final : public workload
    {
    public:
        static constexpr unsigned workers = 2;
        static constexpr double sample_period_s = 0.010;
        static constexpr std::uint64_t grain_ns = 4000;

        stencil_observed(std::uint64_t seed, counter_registry& registry)
          : registry_(registry)
          , papi_(workers)
        {
            spec_.type = tb::graph_type::stencil_1d;
            spec_.width = 8;
            spec_.steps = 250;
            spec_.task_ns = real_task_ns(grain_ns);
            spec_.seed = seed;

            papi_.install();
            papi_.register_counters(registry_);
            tb::register_counters(registry_);

            minihpx::telemetry::telemetry_options options;
            options.counter_names = {
                "/threads{locality#0/worker-thread#*}/time/average",
                "/threads{locality#0/total}/idle-rate",
                "/threads{locality#0/total}/count/cumulative",
                "/papi{locality#0/total}/PAPI_TOT_INS",
                "/papi{locality#0/total}/PAPI_TOT_CYC",
            };
            options.interval_ms = sample_period_s * 1e3;
            session_ = std::make_unique<minihpx::telemetry::session>(
                registry_, std::move(options));

            points_ = resolve(
                registry_, "/taskbench{locality#0/total}/points/executed");
            instructions_ =
                resolve(registry_, "/papi{locality#0/total}/PAPI_TOT_INS");
            idle_rate_ =
                resolve(registry_, "/threads{locality#0/total}/idle-rate");
        }

        ~stencil_observed() override
        {
            session_.reset();
            points_ = instructions_ = idle_rate_ = {};
            papi_.uninstall();
            minihpx::papi::papi_engine::remove_counters(registry_);
        }

        std::uint64_t tasks_per_round() const override
        {
            return spec_.total_points() + 1;
        }

        void prepare() override
        {
            reference_ = run().checksum;
            evaluate(points_, true);
            evaluate(instructions_, true);
        }

        bool round(std::uint32_t) override
        {
            tb::run_result const graph = run();

            // The observer's side: read the counters the graph moved,
            // as examples/adaptive_throttle does between rounds.
            double const points = evaluate(points_, true);
            double const instructions = evaluate(instructions_, true);
            evaluate(idle_rate_, true);

            std::uint64_t const per_point =
                spec_.task_ns > 1 ? spec_.task_ns / 2 : 1;
            return graph.checksum == reference_ &&
                points == static_cast<double>(spec_.total_points()) &&
                instructions ==
                static_cast<double>(spec_.total_points() * per_point);
        }

        void window_begin() override
        {
            auto& s = session_->get_sampler();
            samples0_ = s.samples();
            dropped0_ = s.dropped();
        }

        void layer_metrics(
            double window_s, std::vector<metric>& out) const override
        {
            auto& s = session_->get_sampler();
            double const samples = static_cast<double>(s.samples() - samples0_);
            double const dropped = static_cast<double>(s.dropped() - dropped0_);
            double const due = window_s / sample_period_s;
            out.push_back(
                {"telemetry.sample_rate_ratio", samples / due, "ratio"});
            out.push_back({"telemetry.drop_frac",
                samples > 0 ? dropped / samples : 0.0, "ratio"});

            // Task Bench efficiency: ideal time (points x grain spread
            // over the workers) over the measured graph time.
            double const ideal_ns = static_cast<double>(spec_.total_points()) *
                static_cast<double>(grain_ns) / workers;
            double const graph_ns = median_ns(span_kind::run_graph);
            out.push_back({"taskbench.efficiency",
                graph_ns > 0 ? ideal_ns / graph_ns : 0.0, "ratio"});
        }

    private:
        // One graph in its own task; the root waits on a latch the graph
        // task counts down, then joins it.
        tb::run_result run()
        {
            minihpx::latch done(1);
            tb::run_result graph;
            auto f = timed(span_kind::spawn, [&] {
                return minihpx::async([&] {
                    release_on_exit release{done};
                    graph = timed(span_kind::run_graph, [&] {
                        return tb::run_graph<minihpx::engine::minihpx_engine>(
                            spec_);
                    });
                });
            });
            done.wait();
            timed(span_kind::get_wait, [&] { f.get(); });
            return graph;
        }

        counter_registry& registry_;
        minihpx::papi::papi_engine papi_;
        tb::graph_spec spec_;
        std::uint64_t reference_ = 0;
        std::unique_ptr<minihpx::telemetry::session> session_;
        counter_handle points_, instructions_, idle_rate_;
        std::uint64_t samples0_ = 0;
        std::uint64_t dropped0_ = 0;
    };

    // ---------------------------------------------------------------
    struct environment;

    struct workload_spec
    {
        char const* name;
        unsigned workers;
        unsigned warmup_rounds;
        std::unique_ptr<workload> (*make)(environment&, std::uint64_t seed);
    };

    // One set-up: runtime, counter registration, handles, workload.
    // Members are destroyed in reverse: workload and handles go before
    // the registry, the registry before the runtime it reads.
    struct environment
    {
        environment(workload_spec const& spec, std::uint64_t seed)
          : rt(config(spec.workers))
          , counters(registered(registry, rt))
          , work(spec.make(*this, seed))
        {
        }

        static minihpx::runtime_config config(unsigned workers)
        {
            minihpx::runtime_config c;
            c.sched.num_workers = workers;
            return c;
        }

        static counter_registry& registered(
            counter_registry& registry, minihpx::runtime& rt)
        {
            minihpx::perf::register_all_runtime_counters(registry, rt);
            return registry;
        }

        minihpx::runtime rt;
        counter_registry registry;
        layer_counters counters;
        std::unique_ptr<workload> work;
    };

    workload_spec const specs[] = {
        {"fib_fine", 4, 10,
            [](environment&, std::uint64_t seed) -> std::unique_ptr<workload> {
                return std::make_unique<fib_fine>(seed);
            }},
        {"fanout_blocked", 4, 4,
            [](environment& env,
                std::uint64_t seed) -> std::unique_ptr<workload> {
                return std::make_unique<fanout_blocked>(seed, env.counters);
            }},
        {"stencil_observed", stencil_observed::workers, 20,
            [](environment& env,
                std::uint64_t seed) -> std::unique_ptr<workload> {
                return std::make_unique<stencil_observed>(seed, env.registry);
            }},
    };

    // One traced round and the counter deltas read at its boundaries.
    struct round_row
    {
        std::uint32_t round = 0;
        std::uint64_t start_ns = 0, end_ns = 0;
        double boundary_ns = 0;    // first reset to last read
        double tasks = 0, exec_ns = 0, overhead_ns = 0, stolen = 0,
               frame_hits = 0, objects_max = 0, allocs = 0, minflt = 0,
               overhead_avg = 0, task_avg = 0, idle_rate = 0;
    };

    void write_rows(std::vector<round_row> const& rows, std::string const& path)
    {
        std::FILE* f = std::fopen(path.c_str(), "w");
        if (!f)
            throw std::runtime_error("cannot write " + path);
        std::fprintf(f,
            "round,start_ns,end_ns,boundary_ns,tasks,exec_ns,overhead_ns,"
            "stolen,frame_hits,objects_max,allocs,minflt,overhead_avg_ns,"
            "task_avg_ns,idle_rate\n");
        for (auto const& r : rows)
            std::fprintf(f,
                "%u,%llu,%llu,%.17g,%.17g,%.17g,%.17g,%.17g,%.17g,%.17g,"
                "%.17g,%.17g,%.17g,%.17g,%.17g\n",
                r.round, static_cast<unsigned long long>(r.start_ns),
                static_cast<unsigned long long>(r.end_ns), r.boundary_ns,
                r.tasks, r.exec_ns, r.overhead_ns, r.stolen, r.frame_hits,
                r.objects_max, r.allocs, r.minflt, r.overhead_avg, r.task_avg,
                r.idle_rate);
        if (std::fclose(f) != 0)
            throw std::runtime_error("cannot write " + path);
    }

    template <typename F>
    void on_root(F&& f)
    {
        minihpx::async(std::forward<F>(f)).get();
    }

}    // namespace

std::vector<std::string> const& workload_names()
{
    static std::vector<std::string> const names = [] {
        std::vector<std::string> v;
        for (auto const& s : specs)
            v.emplace_back(s.name);
        return v;
    }();
    return names;
}

result run_workload(std::string const& name, std::uint64_t seed,
    double seconds, bool trace, std::string const& trace_out)
{
    workload_spec const* spec = nullptr;
    for (auto const& s : specs)
        if (name == s.name)
            spec = &s;
    if (!spec)
        throw std::invalid_argument("unknown workload " + name);

    result res;
    res.workload = name;
    auto count_round = [&res](bool ok) {
        ++res.attempted;
        if (!ok)
        {
            ++res.failed;
            res.correct = false;
        }
    };
    auto checked = [](workload& w, std::uint32_t r) {
        try
        {
            return w.round(r);
        }
        catch (std::exception const& e)
        {
            std::fprintf(
                stderr, "perfbench: round %u failed: %s\n", r, e.what());
            return false;
        }
    };

    prepare_spans(spec->workers, trace ? span_capacity : 0);
    real_task_ns(0);    // calibrate while no worker thread exists

    // ---- set-up, repeated; the last one is measured
    std::vector<double> setup_s;
    std::unique_ptr<environment> env;
    for (unsigned k = 0; k != setups; ++k)
    {
        env.reset();
        set_round(setup_round_base + k);
        std::uint64_t const s0 = now_ns();
        set_tracing(trace);    // prices resolve() in the traced run
        env = std::make_unique<environment>(*spec, seed);
        set_tracing(false);
        on_root([&] {
            env->work->prepare();
            for (unsigned w = 0; w != spec->warmup_rounds; ++w)
                count_round(checked(*env->work, w));
        });
        setup_s.push_back(static_cast<double>(now_ns() - s0) * 1e-9);
    }

    // ---- measured window: closed-loop rounds until the deadline
    workload& work = *env->work;
    layer_counters& lc = env->counters;
    std::uint64_t const tasks_per_round = work.tasks_per_round();
    std::vector<double> round_ms, round_rss_mb;
    round_ms.reserve(std::size_t(1) << 16);
    round_rss_mb.reserve(std::size_t(1) << 16);
    double untraced_tasks = 0, untraced_wall_ns = 0;
    std::vector<round_row> rows;
    rows.reserve(trace ? std::size_t(1) << 15 : 0);

    usage const u0 = usage::now();
    work.window_begin();
    std::uint64_t const w0 = now_ns();
    std::uint64_t const deadline =
        w0 + static_cast<std::uint64_t>(seconds * 1e9);

    on_root([&] {
        for (std::uint32_t r = 0; now_ns() < deadline; ++r)
        {
            // The traced run alternates traced and untraced rounds, so
            // the tracing overhead is measured on interleaved rounds.
            bool const traced = trace && (r & 1) != 0;
            set_round(r);
            std::uint64_t b0 = 0, allocs0 = 0;
            usage ub0;
            if (traced)
            {
                set_tracing(true);
                b0 = now_ns();
                for (auto const* h : {&lc.tasks, &lc.exec_ns, &lc.overhead_ns,
                         &lc.task_avg, &lc.overhead_avg, &lc.idle_rate,
                         &lc.stolen, &lc.frame_hits})
                    evaluate(*h, true);
                lc.observe_objects();
                ub0 = usage::now();
                allocs0 = allocations();
            }
            else if (!trace)
                reset_peak_rss();

            std::uint64_t const t0 = now_ns();
            bool const ok = checked(work, r);
            std::uint64_t const t1 = now_ns();
            count_round(ok);
            ++res.rounds;
            round_ms.push_back(static_cast<double>(t1 - t0) * 1e-6);

            if (!traced)
            {
                if (!trace)
                    round_rss_mb.push_back(peak_rss_mb());
                untraced_tasks += static_cast<double>(tasks_per_round);
                untraced_wall_ns += static_cast<double>(t1 - t0);
                continue;
            }
            round_row row;
            row.allocs = static_cast<double>(allocations() - allocs0);
            row.minflt = static_cast<double>(usage::now().minflt - ub0.minflt);
            record(span_kind::round, t0, t1);
            row.round = r;
            row.start_ns = t0;
            row.end_ns = t1;
            row.tasks = evaluate(lc.tasks, true);
            row.exec_ns = evaluate(lc.exec_ns, true);
            row.overhead_ns = evaluate(lc.overhead_ns, true);
            row.stolen = evaluate(lc.stolen, true);
            row.frame_hits = evaluate(lc.frame_hits, true);
            row.overhead_avg = evaluate(lc.overhead_avg, true);
            row.task_avg = evaluate(lc.task_avg, true);
            row.idle_rate = evaluate(lc.idle_rate, true) / 10000.0;
            lc.observe_objects();
            row.objects_max = lc.objects_max;
            row.boundary_ns = static_cast<double>(now_ns() - b0);
            set_tracing(false);
            rows.push_back(row);
        }
    });
    std::uint64_t const w1 = now_ns();
    usage const u1 = usage::now();
    double const window_s = static_cast<double>(w1 - w0) * 1e-9;

    auto& m = res.metrics;
    if (!trace)
    {
        m.push_back({"tasks_per_s",
            static_cast<double>(tasks_per_round * res.rounds) / window_s,
            "1/s"});
        m.push_back({"round_ms_p50", percentile(round_ms, 50), "ms"});
        m.push_back({"round_ms_p90", percentile(round_ms, 90), "ms"});
        m.push_back({"peak_rss_mb", percentile(round_rss_mb, 50), "MB"});
        m.push_back({"setup_s", percentile(setup_s, 50), "s"});
        return res;
    }

    auto total = [&rows](double round_row::*field) {
        double sum = 0;
        for (auto const& r : rows)
            sum += r.*field;
        return sum;
    };
    auto median = [&rows](double round_row::*field) {
        std::vector<double> v;
        for (auto const& r : rows)
            v.push_back(r.*field);
        return percentile(std::move(v), 50);
    };
    double const traced_tasks =
        static_cast<double>(rows.size() * tasks_per_round);
    double traced_wall_ns = 0;
    for (auto const& r : rows)
        traced_wall_ns += static_cast<double>(r.end_ns - r.start_ns);
    auto per_task = [&](double x) {
        return traced_tasks > 0 ? x / traced_tasks : 0.0;
    };
    double const boundary_ns = total(&round_row::boundary_ns);

    m.push_back({"runtime.spawn_ns_p50", median_ns(span_kind::spawn), "ns"});
    m.push_back(
        {"runtime.get_wait_ns_p50", median_ns(span_kind::get_wait), "ns"});
    m.push_back(
        {"runtime.count_down_ns", median_ns(span_kind::count_down), "ns"});
    m.push_back({"runtime.allocs_per_task",
        per_task(total(&round_row::allocs)), "count"});
    m.push_back({"runtime.frame_recycle_ratio",
        per_task(total(&round_row::frame_hits)), "ratio"});
    m.push_back({"runtime.descriptors_alive_max", lc.objects_max, "count"});
    m.push_back({"threads.overhead_ns_per_task",
        median(&round_row::overhead_avg), "ns"});
    m.push_back({"threads.task_ns_avg", median(&round_row::task_avg), "ns"});
    m.push_back({"threads.idle_rate", median(&round_row::idle_rate), "ratio"});
    m.push_back({"threads.steals_per_ktask",
        1000.0 * per_task(total(&round_row::stolen)), "count"});
    m.push_back({"threads.minflt_per_task",
        per_task(total(&round_row::minflt)), "count"});
    m.push_back({"threads.ctxsw_invol_per_s",
        static_cast<double>(u1.nivcsw - u0.nivcsw) / window_s, "1/s"});
    m.push_back({"core.resolve_ns", median_ns(span_kind::resolve), "ns"});
    m.push_back(
        {"core.evaluate_ns_p50", median_ns(span_kind::evaluate), "ns"});
    m.push_back({"core.accounted_frac",
        boundary_ns > 0 ? (total(&round_row::exec_ns) +
                              total(&round_row::overhead_ns)) /
                (spec->workers * boundary_ns) :
                          0.0,
        "ratio"});
    work.layer_metrics(window_s, m);
    double const traced_tps =
        traced_wall_ns > 0 ? traced_tasks / traced_wall_ns : 0.0;
    double const untraced_tps =
        untraced_wall_ns > 0 ? untraced_tasks / untraced_wall_ns : 0.0;
    m.push_back({"trace.overhead_frac",
        untraced_tps > 0 ? 1.0 - traced_tps / untraced_tps : 0.0, "ratio"});

    if (!write_spans(trace_out + ".spans.csv"))
        throw std::runtime_error("cannot write " + trace_out + ".spans.csv");
    write_rows(rows, trace_out + ".rounds.csv");
    return res;
}

}    // namespace perfbench
