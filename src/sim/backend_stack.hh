/**
 * @file
 * BackendStack: the one way to build the memory path a controller
 * (or the insecure baseline) talks to. Bottom to top:
 *
 *   base store   dram::DramSystem + dram::DramBackend, or
 *                mem::NetBackend (SimConfig::backendKind)
 *   injector     mem::FaultInjector, when cfg.faults is enabled
 *   retry layer  mem::ResilientBackend, when cfg.retry sets a
 *                deadline or the injector exists
 *
 * With faults on and no deadline given, the stack picks one well
 * above the store's worst case, so slow successes are not
 * double-issued: 100 us on DRAM; on net, 20 one-way latencies (ten
 * round trips) but at least 1 ms. This is the only copy of that rule.
 *
 * then the tracer and profiler attach to the top layer. sim::System
 * builds one stack per shard (one when unsharded), sim::SyncOram and
 * the replacing scenario one each.
 */

#ifndef FP_SIM_BACKEND_STACK_HH
#define FP_SIM_BACKEND_STACK_HH

#include <memory>

#include "dram/dram_system.hh"
#include "mem/backend.hh"
#include "mem/fault_injector.hh"
#include "mem/resilient_backend.hh"
#include "obs/request_profiler.hh"
#include "obs/tracer.hh"
#include "sim/sim_config.hh"
#include "util/event_queue.hh"

namespace fp::sim
{

class BackendStack
{
  public:
    /**
     * Build @p cfg's memory stack on @p eq (only the backend, dram,
     * net, faults and retry fields are read). A null @p tracer or
     * @p profiler is simply not attached.
     */
    BackendStack(const SimConfig &cfg, EventQueue &eq,
                 obs::Tracer *tracer = nullptr,
                 obs::RequestProfiler *profiler = nullptr);

    /** The outermost layer: what a controller issues against. */
    mem::MemoryBackend &top() const { return *top_; }
    /** The base store, below any decorator. */
    mem::MemoryBackend &base() const { return *base_; }
    /** The DRAM timing model; null on the net backend. */
    dram::DramSystem *dram() const { return dram_.get(); }
    /** Null unless cfg.faults is enabled. */
    mem::FaultInjector *injector() const { return injector_.get(); }
    /** Null unless a retry deadline applies (explicit or auto). */
    mem::ResilientBackend *resilient() const
    {
        return resilient_.get();
    }

  private:
    // Declared bottom-up so destruction unwinds outside-in.
    std::unique_ptr<dram::DramSystem> dram_;
    std::unique_ptr<mem::MemoryBackend> base_;
    std::unique_ptr<mem::FaultInjector> injector_;
    std::unique_ptr<mem::ResilientBackend> resilient_;
    mem::MemoryBackend *top_ = nullptr;
};

} // namespace fp::sim

#endif // FP_SIM_BACKEND_STACK_HH
