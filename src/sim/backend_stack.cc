#include "sim/backend_stack.hh"

#include <algorithm>

#include "dram/dram_backend.hh"
#include "mem/net_backend.hh"

namespace fp::sim
{

BackendStack::BackendStack(const SimConfig &cfg, EventQueue &eq,
                           obs::Tracer *tracer,
                           obs::RequestProfiler *profiler)
{
    if (cfg.backendKind == BackendKind::dram) {
        dram_ = std::make_unique<dram::DramSystem>(cfg.dram, eq);
        base_ = std::make_unique<dram::DramBackend>(*dram_);
    } else {
        base_ = std::make_unique<mem::NetBackend>(cfg.net, eq);
    }
    top_ = base_.get();

    mem::RetryParams retry = cfg.retry;
    if (cfg.faults.enabled()) {
        injector_ =
            std::make_unique<mem::FaultInjector>(cfg.faults, eq, *top_);
        top_ = injector_.get();
        // Faults without a retry policy would wedge the run on the
        // first lost request: pick the auto deadline.
        if (!retry.enabled()) {
            retry.timeoutUs =
                cfg.backendKind == BackendKind::net
                    ? std::max(10.0 * 2.0 * cfg.net.oneWayLatencyUs,
                               1000.0)
                    : 100.0;
        }
    }
    if (retry.enabled()) {
        resilient_ =
            std::make_unique<mem::ResilientBackend>(retry, eq, *top_);
        top_ = resilient_.get();
    }

    if (tracer)
        top_->setTracer(tracer);
    if (profiler)
        top_->setProfiler(profiler);
}

} // namespace fp::sim
