/**
 * @file
 * The replay workloads: a fixed trace served through serve::serve()
 * over a ShardedLaoram, the benchmark's SGD touch on every access.
 *
 *   train-kaggle-enc  one encrypted DRAM tree, Kaggle-like trace
 *   shard-nodes-perm  two trees, each on its own laoram_node child
 *                     process over loopback TCP with a shaped link,
 *                     permutation trace
 */

#include <algorithm>
#include <memory>
#include <sstream>

#include "checks.hh"
#include "core/serve_source.hh"
#include "node_fleet.hh"
#include "obs/metrics.hh"
#include "rows.hh"
#include "serve/serve.hh"
#include "util/rng.hh"
#include "workload/kaggle_synth.hh"
#include "workload/permutation_gen.hh"
#include "workloads.hh"

namespace e2e {

using laoram::core::BlockId;
using laoram::core::ShardedLaoram;

namespace {

struct ReplaySpec
{
    std::uint64_t rows = 0;
    std::uint32_t shards = 1;
    bool encrypt = false;
    bool nodes = false;
    bool kaggle = false;
    std::uint64_t window = 0;      ///< accesses per window, per shard
    std::uint64_t passAccesses = 0;
    std::uint64_t epochs = 1;
    std::uint64_t superblock = 4;
};

// Each node models a 10 Gb/s link with 50 us per RPC. Unshaped, a
// loopback round trip lasts a few scheduler wake-ups, and their cost
// followed the shared host's load from run to run.
constexpr std::uint64_t kLinkLatencyUs = 50;
constexpr std::uint64_t kLinkMbps = 1250;

ReplaySpec
specFor(const std::string &workload)
{
    ReplaySpec s;
    if (workload == "train-kaggle-enc") {
        s.rows = 1 << 16;
        s.shards = 1;
        s.encrypt = true;
        s.kaggle = true;
        s.window = 8192;
        s.epochs = 8;
        s.passAccesses = 32768;
    } else {
        // Each shard gets about 30000 rows: a 2^15-leaf tree on both.
        s.rows = 60000;
        s.shards = 2;
        s.nodes = true;
        s.window = 4096;
        s.epochs = 1;
        s.passAccesses = 60000;
    }
    return s;
}

/**
 * One pass's accesses. Kaggle: one epoch of samples visited
 * spec.epochs times, each epoch in its own seeded order. Permutation:
 * every row exactly once per epoch.
 */
std::vector<BlockId>
makePassTrace(const ReplaySpec &spec, std::uint64_t seed)
{
    if (!spec.kaggle) {
        laoram::workload::PermutationParams p;
        p.numBlocks = spec.rows;
        p.accesses = spec.passAccesses;
        p.seed = seed;
        return laoram::workload::makePermutationTrace(p).accesses;
    }
    laoram::workload::KaggleParams p;
    p.numBlocks = spec.rows;
    p.accesses = spec.passAccesses / spec.epochs;
    p.seed = seed;
    const std::vector<BlockId> epoch =
        laoram::workload::makeKaggleTrace(p).accesses;
    std::vector<BlockId> trace;
    laoram::Rng rng(seed ^ 0xE90C);
    for (std::uint64_t e = 0; e < spec.epochs; ++e) {
        std::vector<BlockId> order = epoch;
        rng.shuffle(order);
        trace.insert(trace.end(), order.begin(), order.end());
    }
    return trace;
}

/**
 * One shard's windows, sliced by a TraceSource. A replay submits all
 * of a pass's accesses at once, when serve() is called, so each access
 * is timed from that call to the end of its window's serve: the
 * submit-to-result latency of a batch job.
 */
class LaneClock final : public laoram::core::ServeSource
{
  public:
    LaneClock(const std::vector<BlockId> &trace, std::uint64_t window,
              WallClock::time_point submitted)
        : slices(trace, window), accesses(trace.size()), window(window),
          submitted(submitted)
    {
    }

    bool
    nextWindow(laoram::core::SourceWindow &out) override
    {
        return slices.nextWindow(out);
    }

    void
    windowServed(std::uint64_t w) override
    {
        const std::int64_t ns = laoram::elapsedNs(submitted);
        const std::uint64_t n =
            std::min<std::uint64_t>(window, accesses - w * window);
        for (std::uint64_t i = 0; i < n; ++i)
            hist.record(ns);
    }

    laoram::StreamingHistogram *latencyHistogram() override
    {
        return &hist;
    }

  private:
    laoram::core::TraceSource slices;
    std::uint64_t accesses;
    std::uint64_t window;
    WallClock::time_point submitted;
    laoram::StreamingHistogram hist;
};

class PassClock final : public laoram::core::ShardedServeSource
{
  public:
    PassClock(const std::vector<std::vector<BlockId>> &local,
              std::uint64_t window, WallClock::time_point submitted)
    {
        for (const auto &t : local)
            lanes.push_back(
                std::make_unique<LaneClock>(t, window, submitted));
    }

    laoram::core::ServeSource &
    shardSource(std::uint32_t shard) override
    {
        return *lanes[shard];
    }

    void
    mergedLatency(laoram::StreamingHistogram &into) override
    {
        for (const auto &lane : lanes)
            into.merge(*lane->latencyHistogram());
    }

  private:
    std::vector<std::unique_ptr<LaneClock>> lanes;
};

/** One engine (plus its nodes) and the model of its rows. */
struct Instance
{
    std::unique_ptr<NodeFleet> fleet;
    std::unique_ptr<ShardedLaoram> engine;
    std::unique_ptr<TouchModel> model;
    double setupSeconds = 0.0;
};

laoram::core::ShardedLaoramConfig
engineConfig(const ReplaySpec &spec, std::uint64_t seed, bool encrypt)
{
    laoram::core::ShardedLaoramConfig cfg;
    cfg.engine.base.numBlocks = spec.rows;
    cfg.engine.base.blockBytes = kRecordBytes;
    cfg.engine.base.payloadBytes = kPayloadBytes;
    cfg.engine.base.encrypt = encrypt;
    cfg.engine.base.seed = seed;
    cfg.engine.superblockSize = spec.superblock;
    cfg.numShards = spec.shards;
    cfg.pipeline.windowAccesses = spec.window;
    cfg.pipeline.mode = laoram::core::PipelineMode::Concurrent;
    cfg.pipeline.prepThreads = 1;
    return cfg;
}

/** Set-up: spawn and dial the nodes, build and initialise the trees. */
Instance
buildInstance(const ReplaySpec &spec, const Options &opt, bool encrypt,
              WallClock::time_point setupStart)
{
    BenchSpan span("bench-setup");
    Instance in;
    laoram::core::ShardedLaoramConfig cfg =
        engineConfig(spec, opt.seed, encrypt);
    if (spec.nodes) {
        const auto split = laoram::core::ShardSplitter::hashed(
            spec.rows, spec.shards);
        std::vector<NodeSpec> specs;
        for (std::uint32_t s = 0; s < spec.shards; ++s)
            specs.push_back({split.shardBlocks(s), kRecordBytes,
                             kPayloadBytes, 4, kLinkLatencyUs, kLinkMbps});
        in.fleet = std::make_unique<NodeFleet>(opt.nodeBinary, opt.outDir,
                                               specs);
        cfg.shardEndpoints = in.fleet->endpoints();
    }
    in.engine = std::make_unique<ShardedLaoram>(cfg);
    in.setupSeconds = secondsSince(setupStart);
    in.model = std::make_unique<TouchModel>(spec.rows);
    in.model->attach(*in.engine);
    return in;
}

PassStats
runPass(Instance &in, const std::vector<std::vector<BlockId>> &local,
        const ReplaySpec &spec, std::uint64_t index)
{
    BenchSpan span("bench-pass", index);
    PassStats p;
    const EngineMark before = EngineMark::take(*in.engine);
    in.model->touchNs.store(0);
    const WallClock::time_point t0 = WallClock::now();
    PassClock source(local, spec.window, t0);
    const laoram::core::ShardedPipelineReport rep =
        laoram::serve::serve(*in.engine, source);
    p.wallNs = static_cast<double>(laoram::elapsedNs(t0));
    for (const auto &t : local)
        p.ops += t.size();
    p.agg = rep.aggregate;
    p.simNs = rep.simNs;
    p.touchNs = static_cast<double>(in.model->touchNs.load());
    applyDelta(p, before, EngineMark::take(*in.engine));
    return p;
}

/** Warm-up pass with an access sink on every tree. */
void
auditedWarmup(Instance &in, const std::vector<std::vector<BlockId>> &local,
              const ReplaySpec &spec, Result &res)
{
    BenchSpan span("bench-warmup");
    ShardAudits audits(*in.engine);
    runPass(in, local, spec, 0);
    audits.finish(res);
}

/** The rows the read-back check covers: the low band plus a stride. */
std::vector<BlockId>
sampleRows(std::uint64_t rows)
{
    std::vector<BlockId> ids;
    for (BlockId id = 0; id < rows; ++id)
        if (id < 2048 || id % 29 == 0)
            ids.push_back(id);
    return ids;
}

} // namespace

/**
 * Read @p ids back through the ORAM and compare each with the row the
 * model predicts; also requires every id of @p trace to have been
 * touched and no corrupt row to have reached the touch callback.
 * Returns the number of mismatching rows.
 */
std::uint64_t
checkReplayRows(ShardedLaoram &engine, const TouchModel &model,
                const std::vector<BlockId> &trace,
                const std::vector<BlockId> &ids, Result &res,
                const std::string &label)
{
    BenchSpan span("bench-readback");
    std::uint64_t untouched = 0;
    for (const BlockId id : trace)
        untouched += model.counts[id] == 0;
    res.check(untouched == 0,
              label + ": " + std::to_string(untouched)
                  + " trace accesses hit rows that were never touched");
    res.check(model.corruptSeen.load() == 0,
              label + ": " + std::to_string(model.corruptSeen.load())
                  + " rows reached the touch callback corrupted");
    engine.setTouchCallback(nullptr);
    std::uint64_t bad = 0;
    for (const BlockId id : ids)
        bad += readRow(engine, id)
               != TouchModel::expectedRow(id, model.counts[id]);
    res.check(bad == 0, label + ": " + std::to_string(bad) + " of "
                            + std::to_string(ids.size())
                            + " rows read back differ from the model");
    return bad;
}

/** Per-shard client-side backend ledgers. */
std::vector<laoram::storage::IoStats>
shardIo(const ShardedLaoram &engine)
{
    std::vector<laoram::storage::IoStats> io;
    for (std::uint32_t s = 0; s < engine.numShards(); ++s)
        io.push_back(engine.shard(s).storageForAudit().ioStats());
    return io;
}

FleetTotals
checkNodeReports(const std::vector<NodeReport> &nodes,
                 const std::vector<laoram::storage::IoStats> &client,
                 bool leftNothingBehind, Result &res)
{
    FleetTotals t;
    res.check(nodes.size() == client.size(),
              std::to_string(nodes.size()) + " node reports for "
                  + std::to_string(client.size()) + " shards");
    for (std::size_t s = 0; s < nodes.size() && s < client.size(); ++s) {
        const NodeReport &n = nodes[s];
        const std::string tag = "node " + std::to_string(s);
        res.check(n.exitedCleanly && !n.killed,
                  tag + " did not drain and exit 0 on SIGTERM");
        const laoram::storage::IoStats &io = client[s];
        const double nr = n.get("laoram_storage_dram_slots_read");
        const double nw = n.get("laoram_storage_dram_slots_written");
        std::ostringstream w;
        w << tag << " reports " << nr << " slots read / " << nw
          << " written, the client counted " << io.slotsRead << " / "
          << io.slotsWritten;
        res.check(nr == static_cast<double>(io.slotsRead)
                      && nw == static_cast<double>(io.slotsWritten),
                  w.str());
        t.rpcs += n.get("laoram_node_rpcs") - n.get("laoram_node_connections");
        t.serviceNs += n.get("laoram_storage_dram_read_ns")
                       + n.get("laoram_storage_dram_write_ns");
    }
    res.check(leftNothingBehind,
              "node processes or node files were left behind");
    return t;
}

namespace {

/**
 * Drain the fleet and check what its nodes reported. Call after the
 * engine hung up: a node drains only once its clients are gone.
 */
FleetTotals
checkFleet(NodeFleet &fleet,
           const std::vector<laoram::storage::IoStats> &client,
           Result &res)
{
    const std::vector<NodeReport> &nodes = fleet.stop();
    return checkNodeReports(nodes, client, fleet.leftNothingBehind(), res);
}

} // namespace

void
runReplay(const Options &opt, Result &res)
{
    const ReplaySpec spec = specFor(opt.workload);
    Instance in = buildInstance(spec, opt, spec.encrypt, opt.processStart);

    printTrees(*in.engine);
    const std::vector<BlockId> trace = makePassTrace(spec, opt.seed);
    const std::vector<std::vector<BlockId>> local =
        in.engine->splitter().splitTrace(trace);

    auditedWarmup(in, local, spec, res);

    // Timed passes. In a traced run only part of the budget goes to
    // the untraced baseline; the traced instance needs the rest.
    const double budget = opt.trace ? opt.seconds * 0.4 : opt.seconds;
    const WallClock::time_point t0 = WallClock::now();
    std::vector<PassStats> passes;
    while (passes.size() < 3 || secondsSince(t0) < budget) {
        passes.push_back(runPass(in, local, spec, passes.size() + 1));
        const PassStats &p = passes.back();
        checkPathReadsPerOp(
            static_cast<double>(p.traffic.pathReads)
                / static_cast<double>(p.ops),
            spec.superblock, res, "pass " + std::to_string(passes.size()));
        checkByteLedgers(p, kRecordBytes, res, "timed pass");
        res.attempted += p.ops;
    }
    if (!opt.trace)
        reportEndToEnd(res, passes, in.setupSeconds);

    checkReplayRows(*in.engine, *in.model, trace, sampleRows(spec.rows),
                    res, opt.workload);
    const std::vector<laoram::storage::IoStats> io = shardIo(*in.engine);
    in.engine.reset();
    if (in.fleet)
        checkFleet(*in.fleet, io, res);
    in.fleet.reset();
    if (!opt.trace)
        return;

    // ---- traced run: a fresh instance, traced from its first call.
    std::vector<double> walls, serves;
    for (const PassStats &p : passes) {
        walls.push_back(p.wallNs);
        serves.push_back(p.agg.wallServeNs);
    }
    LayerExtras x;
    x.untracedMedianWallNs = median(walls);
    x.recordBytes = kRecordBytes;
    x.encrypt = spec.encrypt;
    x.xorNsPerByte = measureXorNsPerByte(kRecordBytes);

    if (spec.encrypt) {
        // The same inputs with encryption off: the drop in serve time
        // is what the cipher costs.
        Instance plain = buildInstance(spec, opt, false, WallClock::now());
        runPass(plain, local, spec, 0);
        std::vector<double> plainServes;
        for (int i = 0; i < 3; ++i)
            plainServes.push_back(
                runPass(plain, local, spec, i + 1).agg.wallServeNs);
        x.cryptoDropNs = median(serves) - median(plainServes);
    }

    startTracing();
    Instance traced = buildInstance(spec, opt, spec.encrypt, WallClock::now());
    runPass(traced, local, spec, 0);
    traced.model->timeTouches = true;
    const PassStats tp = runPass(traced, local, spec, 1);
    traced.model->timeTouches = false;
    res.attempted += tp.ops;
    // Over the wire every backend call is one RPC.
    if (spec.nodes)
        x.rpcs = static_cast<double>(tp.io.readOps + tp.io.writeOps
                                     + tp.io.flushes);
    x.reconnects = static_cast<double>(
        laoram::obs::MetricsRegistry::instance()
            .counter("node.client_reconnects")
            .get());

    checkReplayRows(*traced.engine, *traced.model, trace,
                    sampleRows(spec.rows), res, "traced instance");
    const EngineMark end = EngineMark::take(*traced.engine);
    const std::vector<laoram::storage::IoStats> tracedIo =
        shardIo(*traced.engine);
    traced.engine.reset();
    FleetTotals nodes;
    if (traced.fleet)
        nodes = checkFleet(*traced.fleet, tracedIo, res);
    x.nodeServiceNs = nodes.serviceNs;
    finishTracing(res, end, nodes.rpcs, opt);
    reportLayers(res, tp, x);
}

} // namespace e2e
