/**
 * @file
 * serve-zipf-cache: ServeFrontend over two shards in a closed loop.
 *
 * One generator thread drives every session: batches go to the
 * sessions round-robin, and a session with kDepth batches outstanding
 * waits for its oldest before submitting the next. With kDepth x
 * kSessions batches in flight each shard lane holds about four
 * windows of work, so windows are cut only when full and flush() is
 * called only at the end of a pass: window packing is a pure function
 * of the seed.
 *
 * Each pass runs one frontend lifetime (start ... stop) over the same
 * engine, so every pass reports its own latency histogram.
 */

#include <cmath>
#include <deque>
#include <memory>
#include <sstream>

#include "checks.hh"
#include "rows.hh"
#include "serve/frontend.hh"
#include "util/rng.hh"
#include "workload/zipf_gen.hh"
#include "workloads.hh"

namespace e2e {

using laoram::core::BlockId;
using laoram::core::ShardedLaoram;

namespace {

constexpr std::uint64_t kRows = 60000;
constexpr std::uint32_t kShards = 2;
constexpr std::uint64_t kWindow = 128;      ///< ops per window, per shard
constexpr std::uint32_t kSessions = 8;
constexpr std::size_t kDepth = 4;           ///< batches outstanding
constexpr std::uint64_t kOpsPerBatch = 32;
constexpr std::uint64_t kBatchesPerPass = 4096;
constexpr double kZipfSkew = 0.99;
constexpr double kUpdateShare = 0.2;
constexpr std::uint64_t kCacheRows = 4096;  ///< whole fleet

/** One generated operation: a popularity rank and its kind. */
struct OpDesc
{
    std::uint32_t rank = 0;
    bool update = false;
};

/**
 * The pass's operations, batch by batch. Batch b belongs to session
 * b % kSessions. Rank r is owned by session r % kSessions, and an
 * update is moved to the nearest rank its session owns, so every
 * session updates only its own rows.
 */
std::vector<std::vector<OpDesc>>
makeBatches(std::uint64_t seed)
{
    std::vector<double> cdf(kRows);
    double sum = 0.0;
    for (std::uint64_t r = 0; r < kRows; ++r) {
        sum += 1.0 / std::pow(static_cast<double>(r + 1), kZipfSkew);
        cdf[r] = sum;
    }
    laoram::Rng rng(seed ^ 0x5E55);
    std::vector<std::vector<OpDesc>> batches(kBatchesPerPass);
    for (std::uint64_t b = 0; b < kBatchesPerPass; ++b) {
        const std::uint32_t session = b % kSessions;
        for (std::uint64_t i = 0; i < kOpsPerBatch; ++i) {
            const double u = rng.nextDouble() * sum;
            auto r = static_cast<std::uint32_t>(
                std::lower_bound(cdf.begin(), cdf.end(), u) - cdf.begin());
            OpDesc op;
            op.update = rng.nextBool(kUpdateShare);
            if (op.update) {
                r = r - r % kSessions + session;
                if (r >= kRows)
                    r -= kSessions;
            }
            op.rank = std::min<std::uint32_t>(r, kRows - 1);
            batches[b].push_back(op);
        }
    }
    return batches;
}

struct Outstanding
{
    std::future<laoram::serve::BatchResult> result;
    std::vector<LookupExpect> expects;
};

/** The benchmark's model of every row: the owner's latest version. */
struct ServeModel
{
    std::vector<std::uint32_t> latest = std::vector<std::uint32_t>(kRows, 0);
    std::uint64_t ownViolations = 0;
    std::uint64_t foreignViolations = 0;
};

struct ServeInstance
{
    std::unique_ptr<ShardedLaoram> engine;
    double setupSeconds = 0.0;
};

ServeInstance
buildServe(std::uint64_t seed, WallClock::time_point setupStart)
{
    BenchSpan span("bench-setup");
    laoram::core::ShardedLaoramConfig cfg;
    cfg.engine.base.numBlocks = kRows;
    cfg.engine.base.blockBytes = kRecordBytes;
    cfg.engine.base.payloadBytes = kPayloadBytes;
    cfg.engine.base.seed = seed;
    cfg.engine.superblockSize = 4;
    cfg.engine.cache.capacityBytes = kCacheRows * kPayloadBytes;
    cfg.numShards = kShards;
    cfg.pipeline.windowAccesses = kWindow;
    cfg.pipeline.mode = laoram::core::PipelineMode::Concurrent;
    ServeInstance in;
    in.engine = std::make_unique<ShardedLaoram>(cfg);
    in.setupSeconds = secondsSince(setupStart);
    return in;
}

class Generator
{
  public:
    Generator(const std::vector<std::vector<OpDesc>> &batches,
              const laoram::workload::RankScatterer &scatter,
              ServeModel &model)
        : batches(batches), scatter(scatter), model(model)
    {
    }

    /** One frontend lifetime over the whole batch list. */
    PassStats
    pass(ShardedLaoram &engine, std::uint64_t index)
    {
        BenchSpan span("bench-pass", index);
        PassStats p;
        const EngineMark before = EngineMark::take(engine);
        laoram::serve::ServeFrontend frontend(engine);
        std::vector<laoram::serve::Session> sessions;
        for (std::uint32_t s = 0; s < kSessions; ++s)
            sessions.push_back(frontend.session());
        std::vector<std::deque<Outstanding>> queues(kSessions);
        frontend.start();

        const WallClock::time_point t0 = WallClock::now();
        std::int64_t blockedNs = 0;
        for (std::uint64_t b = 0; b < batches.size(); ++b) {
            const std::uint32_t s = b % kSessions;
            if (queues[s].size() >= kDepth) {
                collect(queues[s].front());
                queues[s].pop_front();
            }
            Outstanding o;
            laoram::serve::Batch batch = build(b, s, o.expects);
            const WallClock::time_point ts = WallClock::now();
            {
                BenchSpan submitSpan("bench-submit", b);
                o.result = sessions[s].submit(std::move(batch));
            }
            blockedNs += laoram::elapsedNs(ts);
            queues[s].push_back(std::move(o));
        }
        frontend.flush();
        for (auto &q : queues) {
            for (Outstanding &o : q)
                collect(o);
            q.clear();
        }
        p.wallNs = static_cast<double>(laoram::elapsedNs(t0));
        const laoram::core::ShardedPipelineReport rep = frontend.stop();
        p.ops = batches.size() * kOpsPerBatch;
        p.agg = rep.aggregate;
        p.simNs = rep.simNs;
        p.submitBlockedNs = static_cast<double>(blockedNs);
        applyDelta(p, before, EngineMark::take(engine));
        return p;
    }

  private:
    laoram::serve::Batch
    build(std::uint64_t b, std::uint32_t session,
          std::vector<LookupExpect> &exp)
    {
        laoram::serve::Batch batch;
        const std::vector<OpDesc> &ops = batches[b];
        for (std::uint32_t i = 0; i < ops.size(); ++i) {
            const BlockId id = scatter(ops[i].rank);
            if (ops[i].update) {
                std::vector<std::uint8_t> row;
                serveRow(id, ++model.latest[id], row);
                batch.ops.push_back(
                    laoram::serve::Op::update(id, std::move(row)));
            } else {
                const bool own = ops[i].rank % kSessions == session;
                exp.push_back({i, id, own, model.latest[id]});
                batch.ops.push_back(laoram::serve::Op::lookup(id));
            }
        }
        return batch;
    }

    /** Wait for a batch and check its lookups against the model. */
    void
    collect(Outstanding &o)
    {
        checkLookups(o.result.get(), o.expects, model.latest,
                     model.ownViolations, model.foreignViolations);
    }

    const std::vector<std::vector<OpDesc>> &batches;
    const laoram::workload::RankScatterer &scatter;
    ServeModel &model;
};

/** Warm-up pass with an access sink on both trees. */
void
auditedWarmup(ShardedLaoram &engine, Generator &gen, Result &res)
{
    BenchSpan span("bench-warmup");
    ShardAudits audits(engine);
    gen.pass(engine, 0);
    audits.finish(res);
}

} // namespace

void
checkServePass(const PassStats &p, Result &res)
{
    checkPathReadsPerOp(static_cast<double>(p.traffic.pathReads)
                            / static_cast<double>(p.ops),
                        4, res, "serve pass");
    checkByteLedgers(p, kRecordBytes, res, "serve pass");
    std::ostringstream w;
    w << "frontend histogram counted " << p.agg.latency.requests
      << " requests for " << p.ops << " submitted operations";
    res.check(p.agg.latency.requests == p.ops, w.str());
}

/**
 * Session-model checks and the final-row read-back: every sampled row
 * must hold exactly its owner's last write. Returns mismatching rows.
 */
std::uint64_t
checkServeRows(ShardedLaoram &engine, const std::vector<std::uint32_t> &latest,
               std::uint64_t ownViolations, std::uint64_t foreignViolations,
               Result &res, const std::string &label)
{
    BenchSpan span("bench-readback");
    res.check(ownViolations == 0,
              label + ": " + std::to_string(ownViolations)
                  + " lookups missed their own session's latest write");
    res.check(foreignViolations == 0,
              label + ": " + std::to_string(foreignViolations)
                  + " lookups returned a value the row's owner never "
                    "wrote");
    std::uint64_t bad = 0, checked = 0;
    std::vector<std::uint8_t> expect;
    for (BlockId id = 0; id < latest.size(); ++id) {
        if (latest[id] == 0 && id % 64 != 0)
            continue;
        if (checked >= 6144 && id % 16 != 0)
            continue;
        ++checked;
        serveRow(id, latest[id], expect);
        bad += readRow(engine, id) != expect;
    }
    res.check(bad == 0, label + ": " + std::to_string(bad) + " of "
                            + std::to_string(checked)
                            + " final rows differ from the owner's last "
                              "write");
    return bad;
}

void
runServe(const Options &opt, Result &res)
{
    ServeInstance in = buildServe(opt.seed, opt.processStart);
    printTrees(*in.engine);
    const std::vector<std::vector<OpDesc>> batches = makeBatches(opt.seed);
    const laoram::workload::RankScatterer scatter(kRows);

    ServeModel model;
    Generator gen(batches, scatter, model);
    auditedWarmup(*in.engine, gen, res);

    const double budget = opt.trace ? opt.seconds * 0.5 : opt.seconds;
    const WallClock::time_point t0 = WallClock::now();
    std::vector<PassStats> passes;
    while (passes.size() < 3 || secondsSince(t0) < budget) {
        passes.push_back(gen.pass(*in.engine, passes.size() + 1));
        checkServePass(passes.back(), res);
        res.attempted += passes.back().ops;
    }
    if (!opt.trace)
        reportEndToEnd(res, passes, in.setupSeconds);
    checkServeRows(*in.engine, model.latest, model.ownViolations,
                   model.foreignViolations, res, opt.workload);
    in.engine.reset();
    if (!opt.trace)
        return;

    // ---- traced run: a fresh instance, traced from its first call.
    std::vector<double> walls;
    for (const PassStats &p : passes)
        walls.push_back(p.wallNs);
    LayerExtras x;
    x.untracedMedianWallNs = median(walls);
    x.recordBytes = kRecordBytes;

    startTracing();
    ServeInstance traced = buildServe(opt.seed, WallClock::now());
    ServeModel tracedModel;
    Generator tracedGen(batches, scatter, tracedModel);
    tracedGen.pass(*traced.engine, 0);
    const PassStats tp = tracedGen.pass(*traced.engine, 1);
    checkServePass(tp, res);
    res.attempted += tp.ops;
    checkServeRows(*traced.engine, tracedModel.latest,
                   tracedModel.ownViolations, tracedModel.foreignViolations,
                   res, "traced instance");
    const EngineMark end = EngineMark::take(*traced.engine);
    traced.engine.reset();
    finishTracing(res, end, 0.0, opt);
    reportLayers(res, tp, x);
}

} // namespace e2e
