/**
 * @file
 * SyncOram: the batteries-included synchronous front door to the
 * library. It owns an event queue, a memory stack (sim::BackendStack:
 * a DDR3 model by default) and a Fork Path ORAM controller, and
 * exposes a plain blocking read/write interface in block units — what
 * an application embedding the ORAM (rather than running
 * experiments) wants.
 *
 * Every call advances the internal simulation until the request
 * retires, so timing statistics (simulated nanoseconds, DRAM traffic,
 * dummy overhead) remain meaningful and can be printed afterwards.
 */

#ifndef FP_SIM_SYNC_ORAM_HH
#define FP_SIM_SYNC_ORAM_HH

#include <cstdint>
#include <memory>
#include <utility>
#include <vector>

#include "core/oram_controller.hh"
#include "mem/backend.hh"
#include "sim/backend_stack.hh"
#include "sim/sim_config.hh"
#include "util/event_queue.hh"

namespace fp::sim
{

class SyncOram
{
  public:
    /**
     * @param controller Configuration for the ORAM controller; the
     *        payload size must be non-zero to carry data.
     * @param memory     The memory stack, read from its backendKind,
     *        dram, net, faults and retry fields exactly as the
     *        System reads them (sim::BackendStack). The default is
     *        the default DRAM part (SimConfig::defaultDram(), the
     *        paper's DDR3-1600 x2) with no fault or retry layer; a
     *        net store with faults and no retry timeout gets a
     *        deadline suited to the net model's round trip.
     */
    explicit SyncOram(core::ControllerParams controller,
                      const SimConfig &memory = {});
    ~SyncOram();

    /** Blocking read of one block. Unwritten blocks read as zeros. */
    std::vector<std::uint8_t> read(BlockAddr addr);

    /** Blocking write of one block (sized to payloadBytes). */
    void write(BlockAddr addr, std::vector<std::uint8_t> data);

    /**
     * Initialise the ORAM with a data set in one pass, without
     * paying a full path access per block. Each block, in input
     * order, gets a uniform leaf label and a place in the deepest
     * bucket of its path that has room (below any on-chip cache
     * band, so cache state stays coherent). Placing comes first: it
     * reads each bucket it looks at once and seals and hashes
     * nothing. Then each touched bucket is sealed once, in ascending
     * bucket order with its new blocks after the ones it held, in
     * load order, and each touched Merkle node is derived once,
     * bottom-up. A block that finds no room falls back
     * to a normal timed write, once the blocks placed before it are
     * in the store. Must be called before the first access. An
     * address that is already loaded (repeated in @p blocks, or
     * loaded by an earlier call) is fatal.
     *
     * @return the number of blocks that needed the slow path.
     */
    std::size_t bulkLoad(
        const std::vector<
            std::pair<BlockAddr, std::vector<std::uint8_t>>> &blocks);

    /** Payload size each block carries. */
    std::size_t blockSize() const;

    /** Simulated time elapsed so far. */
    Tick now() const { return eq_->now(); }

    core::OramController &controller() { return *ctrl_; }
    /** The base store (below any fault/retry decorators). */
    mem::MemoryBackend &backend() { return stack_->base(); }
    /** The whole memory stack: base store, DRAM model (null off
     *  DRAM), fault injector and retry layer (null unless the
     *  memory config asked for them). */
    BackendStack &stack() { return *stack_; }

    /** Print a human-readable stats summary to stdout. */
    void printStats() const;

  private:
    std::unique_ptr<EventQueue> eq_;
    std::unique_ptr<BackendStack> stack_;
    std::unique_ptr<core::OramController> ctrl_;
};

} // namespace fp::sim

#endif // FP_SIM_SYNC_ORAM_HH
