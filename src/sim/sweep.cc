#include "sim/sweep.hh"

#include <atomic>
#include <chrono>
#include <cstdio>
#include <exception>
#include <limits>
#include <mutex>
#include <thread>

#include "sim/system.hh"
#include "util/logging.hh"
#include "workload/mixes.hh"
#include "workload/parsec_profiles.hh"

namespace fp::sim
{

namespace
{

/** Run one point with failure isolation; never throws. */
SweepOutcome
runPoint(const SweepPoint &p)
{
    SweepOutcome out;
    out.name = p.name;
    try {
        // While this guard lives, fp_assert/fp_panic/fp_fatal on this
        // thread throw SimFailure instead of killing the process.
        ScopedRecoverableFailures guard;
        System system(p.cfg, p.profiles);
        out.result = system.run(p.limit);
        out.ok = true;
    } catch (const std::exception &e) {
        out.error = e.what();
    } catch (...) {
        out.error = "unknown exception";
    }
    return out;
}

} // anonymous namespace

SweepPoint
pointFromProfiles(std::string name, SimConfig cfg,
                  std::vector<workload::WorkloadProfile> profiles)
{
    SweepPoint p;
    p.name = std::move(name);
    p.cfg = std::move(cfg);
    p.profiles = std::move(profiles);
    return p;
}

SweepPoint
pointFromMix(std::string name, SimConfig cfg, const std::string &mix)
{
    auto profiles = workload::mixProfiles(mix);
    fp_assert(profiles.size() == cfg.cores,
              "mix %s has %zu members but config has %u cores",
              mix.c_str(), profiles.size(), cfg.cores);
    return pointFromProfiles(std::move(name), std::move(cfg),
                             std::move(profiles));
}

SweepPoint
pointFromParsec(std::string name, SimConfig cfg,
                const std::string &workload)
{
    cfg.sharedAddressSpace = true;
    auto profiles = workload::parsecThreads(workload, cfg.cores);
    return pointFromProfiles(std::move(name), std::move(cfg),
                             std::move(profiles));
}

SweepRunner::SweepRunner(SweepOptions opt) : opt_(std::move(opt)) {}

unsigned
SweepRunner::hardwareJobs()
{
    unsigned n = std::thread::hardware_concurrency();
    return n ? n : 1;
}

unsigned
SweepRunner::effectiveJobs(std::size_t npoints) const
{
    unsigned jobs = opt_.jobs ? opt_.jobs : hardwareJobs();
    if (npoints < jobs)
        jobs = npoints ? static_cast<unsigned>(npoints) : 1;
    return jobs;
}

void
SweepRunner::dispatch(std::size_t total,
                      const std::function<void(std::size_t)> &run_one)
{
    const unsigned jobs = effectiveJobs(total);
    if (jobs <= 1) {
        // Inline on the calling thread: identical to the sequential
        // benches this runner replaced, byte for byte.
        for (std::size_t i = 0; i < total; ++i)
            run_one(i);
        return;
    }

    std::atomic<std::size_t> next{0};
    std::vector<std::thread> workers;
    workers.reserve(jobs);
    for (unsigned w = 0; w < jobs; ++w) {
        workers.emplace_back([&] {
            for (;;) {
                std::size_t i =
                    next.fetch_add(1, std::memory_order_relaxed);
                if (i >= total)
                    return;
                run_one(i);
            }
        });
    }
    for (auto &t : workers)
        t.join();
}

std::vector<SweepOutcome>
SweepRunner::run(std::vector<SweepPoint> points)
{
    const std::size_t total = points.size();
    std::vector<SweepOutcome> outcomes(total);
    if (total == 0)
        return outcomes;

    std::mutex report_mutex;
    std::size_t done = 0;

    auto report = [&](const SweepOutcome &out, double secs) {
        std::lock_guard<std::mutex> lock(report_mutex);
        ++done;
        if (opt_.progress) {
            std::fprintf(stderr, "[%zu/%zu] %s %s(%.1fs)%s%s\n", done,
                         total, out.name.c_str(),
                         out.ok ? "" : "FAILED ", secs,
                         out.ok ? "" : ": ",
                         out.ok ? "" : out.error.c_str());
        }
        if (opt_.onPointDone)
            opt_.onPointDone(out, done, total);
    };

    dispatch(total, [&](std::size_t i) {
        auto t0 = std::chrono::steady_clock::now();
        outcomes[i] = runPoint(points[i]);
        std::chrono::duration<double> dt =
            std::chrono::steady_clock::now() - t0;
        report(outcomes[i], dt.count());
    });
    return outcomes;
}

std::vector<TaskOutcome>
SweepRunner::runTasks(std::vector<SweepTask> tasks)
{
    const std::size_t total = tasks.size();
    std::vector<TaskOutcome> outcomes(total);
    if (total == 0)
        return outcomes;

    std::mutex report_mutex;
    std::size_t done = 0;

    auto report = [&](const TaskOutcome &out, double secs) {
        std::lock_guard<std::mutex> lock(report_mutex);
        ++done;
        if (opt_.progress) {
            std::fprintf(stderr, "[%zu/%zu] %s %s(%.1fs)%s%s\n", done,
                         total, out.name.c_str(),
                         out.ok ? "" : "FAILED ", secs,
                         out.ok ? "" : ": ",
                         out.ok ? "" : out.error.c_str());
        }
    };

    dispatch(total, [&](std::size_t i) {
        auto t0 = std::chrono::steady_clock::now();
        TaskOutcome &out = outcomes[i];
        out.name = tasks[i].name;
        try {
            ScopedRecoverableFailures guard;
            tasks[i].fn();
            out.ok = true;
        } catch (const std::exception &e) {
            out.error = e.what();
        } catch (...) {
            out.error = "unknown exception";
        }
        std::chrono::duration<double> dt =
            std::chrono::steady_clock::now() - t0;
        report(out, dt.count());
    });
    return outcomes;
}

SweepOptions
sweepOptionsFromArgs(const CliArgs &args)
{
    SweepOptions opt;
    // Signed, so a negative count is rejected rather than wrapped.
    const std::int64_t jobs = args.getInt("jobs", 0);
    if (jobs < 0 || jobs > std::numeric_limits<unsigned>::max())
        fp_fatal("--jobs must be in [0, %u] (0: one per hardware "
                 "thread), got %lld",
                 std::numeric_limits<unsigned>::max(),
                 static_cast<long long>(jobs));
    opt.jobs = static_cast<unsigned>(jobs);
    opt.progress = !args.getBool("csv");
    return opt;
}

} // namespace fp::sim
