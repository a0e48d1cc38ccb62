/**
 * @file
 * The three workloads and what they share: one timed pass's figures
 * and the metric tables built from them.
 *
 * Every workload runs the same way. Set-up (engine construction, tree
 * initialisation, node spawn and dial) is timed from process start.
 * One untimed warm-up pass runs with an access sink on every tree for
 * the method-property checks. Timed passes of a fixed size then run
 * until --seconds have elapsed (at least three), and the end-to-end
 * metrics are medians over those passes. The outputs are checked
 * against the benchmark's own model after timing.
 *
 * With --trace 1 the run instead measures a few untimed-baseline
 * passes, then builds a fresh instance with span tracing on from its
 * first call, replays set-up, warm-up and one traced pass, and
 * reports the per-layer metrics of that pass.
 */

#ifndef E2EBENCH_WORKLOADS_HH
#define E2EBENCH_WORKLOADS_HH

#include <cstdint>
#include <vector>

#include "common.hh"
#include "core/sharded_laoram.hh"
#include "node_fleet.hh"
#include "storage/slot_backend.hh"

namespace e2e {

/** Everything one pass measured. */
struct PassStats
{
    std::uint64_t ops = 0;
    double wallNs = 0.0;
    laoram::core::PipelineReport agg; ///< aggregate pipeline report
    laoram::mem::TrafficCounters traffic; ///< delta over the pass
    laoram::storage::IoStats io;          ///< backend delta, all shards
    double simNs = 0.0;                   ///< max-over-shards delta
    std::uint64_t bins = 0;
    std::uint64_t preprocessed = 0;
    std::uint64_t linked = 0;
    double touchNs = 0.0;         ///< benchmark touch callback time
    double submitBlockedNs = 0.0; ///< generator time inside submit()
};

/** Engine-side cumulative counters, for per-pass deltas. */
struct EngineMark
{
    laoram::mem::TrafficCounters traffic;
    laoram::storage::IoStats io;
    std::uint64_t bins = 0;
    std::uint64_t preprocessed = 0;
    std::uint64_t linked = 0;

    static EngineMark take(const laoram::core::ShardedLaoram &engine);
};

/** Fill the counter deltas of @p p from two marks. */
void applyDelta(PassStats &p, const EngineMark &before,
                const EngineMark &after);

/** Print each shard tree's rows, leaves, slots and bytes. */
void printTrees(const laoram::core::ShardedLaoram &engine);

/** Print the end-to-end metrics: medians over @p passes. */
void reportEndToEnd(Result &res, const std::vector<PassStats> &passes,
                    double setupSeconds);

/** Extra inputs of the per-layer table beyond the traced pass. */
struct LayerExtras
{
    double untracedMedianWallNs = 0.0;
    std::uint64_t recordBytes = 0;
    bool encrypt = false;
    double cryptoDropNs = 0.0;   ///< serve-time drop with crypto off
    double xorNsPerByte = 0.0;   ///< ChaCha20 on record-sized buffers
    double rpcs = 0.0;           ///< RPCs of the traced pass
    double nodeServiceNs = 0.0;  ///< node-side backend time
    double reconnects = 0.0;
};

/**
 * Start the traced instance: span tracing (rings large enough that no
 * span of a run is dropped) and the metrics gate, both from the next
 * call on.
 */
void startTracing();

/**
 * End the traced instance (its engine already destroyed): stop
 * tracing, write the Chrome trace into --out-dir, and hand the
 * program's own totals to run.py, which reconciles the trace's span
 * counts with them. @p end is the instance's last engine mark;
 * @p nodeRpcs the RPCs its nodes reported.
 */
void finishTracing(Result &res, const EngineMark &end, double nodeRpcs,
                   const Options &opt);

/** Print every per-layer metric of the traced pass @p p. */
void reportLayers(Result &res, const PassStats &p,
                  const LayerExtras &x);

/** ns per byte of ChaCha20::xorStream on @p recordBytes buffers. */
double measureXorNsPerByte(std::uint64_t recordBytes);

/** Check that meter and backend agree on the bytes of @p p. */
void checkByteLedgers(const PassStats &p, std::uint64_t recordBytes,
                      Result &res, const char *label);

class TouchModel;

/**
 * Replay read-back: every trace id touched, no corrupt row seen by
 * the touch callback, and rows @p ids read back through the ORAM
 * equal to the model's prediction. Returns mismatching rows.
 */
std::uint64_t checkReplayRows(laoram::core::ShardedLaoram &engine,
                              const TouchModel &model,
                              const std::vector<laoram::core::BlockId> &trace,
                              const std::vector<laoram::core::BlockId> &ids,
                              Result &res, const std::string &label);

/**
 * Serving read-back: no session-model violation, and every sampled
 * row equal to its owner's last write (@p latest). Returns
 * mismatching rows.
 */
std::uint64_t checkServeRows(laoram::core::ShardedLaoram &engine,
                             const std::vector<std::uint32_t> &latest,
                             std::uint64_t ownViolations,
                             std::uint64_t foreignViolations, Result &res,
                             const std::string &label);

/** What the nodes of a fleet reported at drain, summed. */
struct FleetTotals
{
    double rpcs = 0.0;      ///< request frames minus one Hello each
    double serviceNs = 0.0; ///< node-side backend time
};

/**
 * Node hygiene and node-vs-client slot counts: every node drained and
 * exited 0 on SIGTERM, node s reports the slots read and written that
 * the client counted for shard s (@p client), and the fleet left no
 * process or file behind. Returns the reports' totals.
 */
FleetTotals
checkNodeReports(const std::vector<NodeReport> &nodes,
                 const std::vector<laoram::storage::IoStats> &client,
                 bool leftNothingBehind, Result &res);

/**
 * The per-pass checks of serve-zipf-cache: path reads per op in
 * [1/S, 1], meter and backend byte ledgers agree, and the frontend
 * histogram counted every submitted operation.
 */
void checkServePass(const PassStats &p, Result &res);

/** train-kaggle-enc and shard-nodes-perm. */
void runReplay(const Options &opt, Result &res);

/** serve-zipf-cache. */
void runServe(const Options &opt, Result &res);

/** Corrupt one row and one count per model; every check must fire. */
int runSelfTest();

} // namespace e2e

#endif // E2EBENCH_WORKLOADS_HH
