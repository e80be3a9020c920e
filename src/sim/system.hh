/**
 * @file
 * The full-system harness: cores -> (ORAM controller | insecure
 * memory) -> DRAM, all on one event queue. One System object is one
 * experiment run; it produces a RunResult for the figure harnesses.
 */

#ifndef FP_SIM_SYSTEM_HH
#define FP_SIM_SYSTEM_HH

#include <memory>
#include <vector>

#include "core/oram_controller.hh"
#include "core/sharded_oram.hh"
#include "obs/interval_stats.hh"
#include "obs/request_profiler.hh"
#include "obs/tracer.hh"
#include "sim/backend_stack.hh"
#include "sim/metrics.hh"
#include "sim/sim_config.hh"
#include "util/event_queue.hh"
#include "util/stats.hh"
#include "workload/core_model.hh"

namespace fp::sim
{

class System
{
  public:
    /**
     * @param cfg      System configuration.
     * @param profiles One workload profile per core (size must equal
     *                 cfg.cores).
     */
    System(const SimConfig &cfg,
           std::vector<workload::WorkloadProfile> profiles);
    ~System();

    /**
     * Run until every core finishes its request budget, or until the
     * event queue passes @p limit ticks. A truncated run returns a
     * RunResult with hitTickLimit set (and executionTicks at the
     * truncation point) rather than aborting, so sweeps can record
     * the partial outcome and move on.
     */
    RunResult run(Tick limit = maxTick);

    EventQueue &eventQueue() { return eq_; }
    /** Memory stacks: one per shard, or one when unsharded. */
    unsigned numStacks() const
    {
        return static_cast<unsigned>(stacks_.size());
    }
    /** Stack s: base store, optional fault injector and retry layer
     *  (the controller or insecure sink issues against top()). */
    BackendStack &stack(unsigned s = 0) { return *stacks_[s].mem; }
    /** Null in insecure mode and when sharded (see sharded()). */
    core::OramController *controller() { return ctrl_.get(); }
    /** The shard dispatcher; null unless cfg.shards > 1. */
    core::ShardedOram *sharded() { return sharded_.get(); }
    /** Null unless cfg.obs.traceOut was set. */
    obs::Tracer *tracer() { return tracer_.get(); }
    /** Null unless cfg.obs.statsOut was set. */
    obs::IntervalStats *intervalStats() { return intervalStats_.get(); }
    /** Stack s's lifecycle profiler; null unless per-request
     *  profiling is on (and not insecure: the profiler follows ORAM
     *  pipeline milestones). A sharded run's rollup lands in the
     *  RunResult. */
    obs::RequestProfiler *profiler(unsigned s = 0)
    {
        return stacks_[s].profiler.get();
    }
    /** This system's statistics registry (instance-scoped so several
     *  Systems can coexist, e.g. on sweep worker threads). */
    const StatRegistry &statRegistry() const { return registry_; }
    const std::vector<std::unique_ptr<workload::CoreModel>> &
    cores() const
    {
        return cores_;
    }

  private:
    class OramSink;
    class InsecureSink;
    class ShardedSink;

    /** One memory stack plus the observability attached to it (its
     *  controller lives in ctrl_ or inside sharded_). */
    struct StackParts
    {
        /** View of the root tracer for shard stacks: same file,
         *  tracks at tid offset 32 * shard with an "s<N>." name
         *  prefix. Null when unsharded (the root tracer is used). */
        std::unique_ptr<obs::Tracer> tracerView;
        /** Where this stack and its controller trace: tracerView,
         *  the root tracer, or null when tracing is off. */
        obs::Tracer *tracer = nullptr;
        std::unique_ptr<obs::RequestProfiler> profiler;
        std::unique_ptr<BackendStack> mem;
    };

    /** The controller over stack s (ORAM path only). */
    core::OramController &controllerOf(unsigned s) const;
    bool allDone() const;
    bool resilienceConfigured() const;

    SimConfig cfg_;
    /** Must precede every stat-owning component: StatGroups capture
     *  the thread's current registry at construction and deregister
     *  from it on destruction, so the registry must be built first
     *  and torn down last. */
    StatRegistry registry_;
    EventQueue eq_;
    std::unique_ptr<obs::Tracer> tracer_;
    std::unique_ptr<obs::IntervalStats> intervalStats_;
    /** Declared before the controllers, which reference the stacks'
     *  top layers, so the controllers are destroyed first. */
    std::vector<StackParts> stacks_;
    /** Exactly one of these is set on the ORAM path: ctrl_ when
     *  unsharded, sharded_ when cfg.shards > 1. */
    std::unique_ptr<core::OramController> ctrl_;
    std::unique_ptr<core::ShardedOram> sharded_;
    std::unique_ptr<workload::MemorySink> sink_;
    std::vector<std::unique_ptr<workload::CoreModel>> cores_;
};

} // namespace fp::sim

#endif // FP_SIM_SYSTEM_HH
