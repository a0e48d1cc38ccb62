/**
 * @file
 * The benchmark's test of itself: on small instances, each output
 * check must pass on clean state and fire once one row or one count
 * is corrupted.
 */

#include <iostream>
#include <memory>

#include "checks.hh"
#include "rows.hh"
#include "serve/serve.hh"
#include "util/rng.hh"
#include "workloads.hh"

namespace e2e {

using laoram::core::BlockId;
using laoram::core::ShardedLaoram;

namespace {

std::unique_ptr<ShardedLaoram>
smallEngine(std::uint64_t rows, std::uint32_t shards)
{
    laoram::core::ShardedLaoramConfig cfg;
    cfg.engine.base.numBlocks = rows;
    cfg.engine.base.blockBytes = kRecordBytes;
    cfg.engine.base.payloadBytes = kPayloadBytes;
    cfg.engine.superblockSize = 4;
    cfg.numShards = shards;
    cfg.pipeline.windowAccesses = 256;
    return std::make_unique<ShardedLaoram>(cfg);
}

class Tally
{
  public:
    /** @p fired: the check under test reported a failure. */
    void
    expect(const char *name, bool fired, bool shouldFire)
    {
        const bool ok = fired == shouldFire;
        std::cout << "self-test " << name << ": "
                  << (fired ? "fired" : "quiet")
                  << (ok ? "" : "  <-- WRONG") << "\n";
        bad += !ok;
    }

    int bad = 0;
};

void
replayChecks(Tally &t)
{
    constexpr std::uint64_t kRows = 512;
    auto engine = smallEngine(kRows, 1);
    TouchModel model(kRows);
    model.attach(*engine);
    laoram::Rng rng(7);
    std::vector<BlockId> trace;
    for (int i = 0; i < 4096; ++i)
        trace.push_back(rng.nextBounded(kRows));
    laoram::serve::serve(*engine, trace);

    std::vector<BlockId> ids;
    for (BlockId id = 0; id < kRows; ++id)
        ids.push_back(id);
    {
        Result r;
        checkReplayRows(*engine, model, trace, ids, r, "clean");
        t.expect("replay-clean", !r.correct(), false);
    }
    {
        Result r;
        ++model.counts[5];
        checkReplayRows(*engine, model, trace, ids, r, "count");
        --model.counts[5];
        t.expect("replay-corrupt-count", !r.correct(), true);
    }
    {
        // Pretend row 0 was never touched although the trace has it.
        Result r;
        const std::uint32_t saved = model.counts[0];
        model.counts[0] = 0;
        checkReplayRows(*engine, model, {0}, {}, r, "untouched");
        model.counts[0] = saved;
        t.expect("replay-untouched-id", !r.correct(), true);
    }
    // Corrupt one stored row: the read-back must catch it, and so must
    // the touch callback the next time the row is served.
    std::vector<std::uint8_t> row = readRow(*engine, 9);
    row[20] ^= 0x40;
    engine->shard(0).writeBlock(engine->splitter().localId(9), row);
    {
        Result r;
        checkReplayRows(*engine, model, {}, {9}, r, "row");
        t.expect("replay-corrupt-row", !r.correct(), true);
    }
    {
        model.attach(*engine);
        laoram::serve::serve(*engine, std::vector<BlockId>{9});
        Result r;
        checkReplayRows(*engine, model, {}, {}, r, "touch");
        t.expect("replay-corrupt-row-at-touch", !r.correct(), true);
    }
    // Write @p bytes back as row @p id, then touch it once. A stale copy
    // (intact, one touch behind the model, as a lost update would leave
    // it) and an all-zero copy of a touched row must be flagged there;
    // the row's current bytes must not.
    auto touchSees = [&](BlockId id, const std::vector<std::uint8_t> &bytes,
                         const char *label) {
        engine->setTouchCallback(nullptr);
        engine->shard(0).writeBlock(engine->splitter().localId(id), bytes);
        model.attach(*engine);
        model.corruptSeen = 0;
        laoram::serve::serve(*engine, std::vector<BlockId>{id});
        Result r;
        checkReplayRows(*engine, model, {}, {}, r, label);
        return !r.correct();
    };
    {
        model.attach(*engine);
        model.corruptSeen = 0;
        const std::vector<std::uint8_t> before = readRow(*engine, 11);
        laoram::serve::serve(*engine, std::vector<BlockId>{11});
        t.expect("replay-stale-row-at-touch",
                 touchSees(11, before, "stale"), true);
        t.expect("replay-zeroed-row-at-touch",
                 touchSees(12, std::vector<std::uint8_t>(kPayloadBytes, 0),
                           "zeroed"),
                 true);
        const std::vector<std::uint8_t> now = readRow(*engine, 13);
        t.expect("replay-current-row-at-touch",
                 touchSees(13, now, "current"), false);
    }
}

void
serveChecks(Tally &t)
{
    constexpr std::uint64_t kRows = 512;
    auto engine = smallEngine(kRows, 2);
    std::vector<std::uint32_t> latest(kRows, 0);
    std::vector<std::uint8_t> row;
    for (BlockId id = 0; id < kRows; id += 3) {
        latest[id] = static_cast<std::uint32_t>(id % 7 + 1);
        serveRow(id, latest[id], row);
        const auto &split = engine->splitter();
        engine->shard(split.shardOf(id)).writeBlock(split.localId(id), row);
    }
    {
        Result r;
        checkServeRows(*engine, latest, 0, 0, r, "clean");
        t.expect("serve-clean", !r.correct(), false);
    }
    {
        Result r;
        ++latest[3];
        checkServeRows(*engine, latest, 0, 0, r, "count");
        --latest[3];
        t.expect("serve-corrupt-count", !r.correct(), true);
    }
    {
        // Lookup results as a session collects them: its own row 3 at
        // the latest version, and row 6 of another session at an
        // older version its owner wrote.
        laoram::serve::BatchResult got;
        got.results.resize(2);
        got.results[0].id = 3;
        serveRow(3, latest[3], got.results[0].payload);
        got.results[1].id = 6;
        serveRow(6, latest[6] - 1, got.results[1].payload);
        const std::vector<LookupExpect> expects = {
            {0, 3, true, latest[3]}, {1, 6, false, 0}};
        auto fires = [&](const laoram::serve::BatchResult &b,
                         const char *label) {
            std::uint64_t own = 0, foreign = 0;
            checkLookups(b, expects, latest, own, foreign);
            Result r;
            checkServeRows(*engine, latest, own, foreign, r, label);
            return !r.correct();
        };
        t.expect("serve-lookups-clean", fires(got, "lookups"), false);
        laoram::serve::BatchResult stale = got;
        serveRow(3, latest[3] - 1, stale.results[0].payload);
        t.expect("serve-read-your-writes", fires(stale, "own"), true);
        laoram::serve::BatchResult newer = got;
        serveRow(6, latest[6] + 1, newer.results[1].payload);
        t.expect("serve-foreign-unwritten-version",
                 fires(newer, "foreign version"), true);
        laoram::serve::BatchResult garbled = got;
        garbled.results[1].payload[40] ^= 1;
        t.expect("serve-foreign-value", fires(garbled, "foreign bytes"),
                 true);
    }
    {
        PassStats p;
        p.ops = 100;
        p.traffic.pathReads = 50;
        p.traffic.blocksRead = p.io.slotsRead = 100;
        p.traffic.bytesRead = p.io.bytesRead = 100 * kRecordBytes;
        p.agg.latency.requests = 100;
        Result clean;
        checkServePass(p, clean);
        t.expect("serve-pass-clean", !clean.correct(), false);
        p.agg.latency.requests = 101;
        Result r;
        checkServePass(p, r);
        t.expect("serve-histogram-count", !r.correct(), true);
    }
    {
        Result r;
        serveRow(6, latest[6], row);
        row[40] ^= 1;
        const auto &split = engine->splitter();
        engine->shard(split.shardOf(6)).writeBlock(split.localId(6), row);
        checkServeRows(*engine, latest, 0, 0, r, "row");
        t.expect("serve-corrupt-row", !r.correct(), true);
    }
}

void
methodChecks(Tally &t)
{
    const laoram::oram::TreeGeometry geom(
        1024, kRecordBytes, laoram::oram::BucketProfile::uniform(4));
    laoram::Rng rng(3);
    auto readPath = [&](PathAudit &a, std::uint64_t leaf, bool skipRoot) {
        for (unsigned l = skipRoot ? 1 : 0; l <= geom.leafLevel(); ++l) {
            const std::uint64_t base =
                geom.nodeSlotBase(geom.pathNode(leaf, l));
            for (std::uint64_t z = 0; z < geom.bucketSize(l); ++z)
                a.onSlot(base + z, false);
        }
        a.onSlot(0, true);
    };
    {
        PathAudit a(geom);
        for (int i = 0; i < 20000; ++i)
            readPath(a, rng.nextBounded(geom.numLeaves()), false);
        a.finish();
        Result r;
        checkPathAudit(a, r, "uniform");
        t.expect("paths-clean", !r.correct(), false);
    }
    {
        PathAudit a(geom);
        for (int i = 0; i < 20000; ++i)
            readPath(a, rng.nextBounded(geom.numLeaves() / 2), false);
        a.finish();
        Result r;
        checkPathAudit(a, r, "skewed");
        t.expect("paths-skewed-leaves", !r.correct(), true);
    }
    {
        PathAudit a(geom);
        for (int i = 0; i < 20000; ++i)
            readPath(a, rng.nextBounded(geom.numLeaves()), i == 77);
        a.finish();
        Result r;
        checkPathAudit(a, r, "partial");
        t.expect("paths-missing-bucket", !r.correct(), true);
    }
    {
        Result r;
        checkPathReadsPerOp(0.5, 4, r, "in range");
        t.expect("path-reads-in-range", !r.correct(), false);
        Result lo, hi;
        checkPathReadsPerOp(0.2, 4, lo, "below 1/S");
        checkPathReadsPerOp(1.01, 4, hi, "above 1");
        t.expect("path-reads-out-of-range",
                 !lo.correct() && !hi.correct(), true);
    }
    {
        PassStats p;
        p.traffic.blocksRead = p.io.slotsRead = 100;
        p.traffic.bytesRead = p.io.bytesRead = 100 * kRecordBytes;
        Result r;
        checkByteLedgers(p, kRecordBytes, r, "clean");
        t.expect("ledgers-clean", !r.correct(), false);
        p.io.slotsRead = 101;
        Result bad;
        checkByteLedgers(p, kRecordBytes, bad, "one slot off");
        t.expect("ledgers-corrupt-count", !bad.correct(), true);
    }
}

void
nodeChecks(Tally &t)
{
    std::vector<laoram::storage::IoStats> client(2);
    std::vector<NodeReport> nodes(2);
    for (std::size_t s = 0; s < 2; ++s) {
        client[s].slotsRead = 1000 + s;
        client[s].slotsWritten = 900 + s;
        nodes[s].exitedCleanly = true;
        nodes[s].metrics["laoram_storage_dram_slots_read"] = 1000.0 + s;
        nodes[s].metrics["laoram_storage_dram_slots_written"] = 900.0 + s;
    }
    auto fires = [&](const std::vector<NodeReport> &n, bool clean) {
        Result r;
        checkNodeReports(n, client, clean, r);
        return !r.correct();
    };
    t.expect("nodes-clean", fires(nodes, true), false);
    std::vector<NodeReport> bad = nodes;
    bad[1].metrics["laoram_storage_dram_slots_read"] += 1;
    t.expect("nodes-slots-read", fires(bad, true), true);
    bad = nodes;
    bad[0].metrics["laoram_storage_dram_slots_written"] -= 1;
    t.expect("nodes-slots-written", fires(bad, true), true);
    bad = nodes;
    bad[0].exitedCleanly = false;
    t.expect("nodes-exit-code", fires(bad, true), true);
    bad = nodes;
    bad[1].killed = true;
    t.expect("nodes-killed", fires(bad, true), true);
    t.expect("nodes-left-behind", fires(nodes, false), true);
}

} // namespace

int
runSelfTest()
{
    Tally t;
    replayChecks(t);
    serveChecks(t);
    methodChecks(t);
    nodeChecks(t);
    std::cout << (t.bad ? "self-test FAILED" : "self-test passed") << "\n";
    return t.bad ? 1 : 0;
}

} // namespace e2e
