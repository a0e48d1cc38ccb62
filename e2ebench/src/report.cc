#include <iostream>
#include <sstream>

#include "crypto/chacha20.hh"
#include "obs/metrics.hh"
#include "obs/trace.hh"
#include "workloads.hh"

namespace e2e {

using laoram::core::ShardedLaoram;

EngineMark
EngineMark::take(const ShardedLaoram &engine)
{
    EngineMark m;
    for (std::uint32_t s = 0; s < engine.numShards(); ++s) {
        const laoram::core::Laoram &e = engine.shard(s);
        m.traffic += e.meter().counters();
        m.io += e.storageForAudit().ioStats();
        m.bins += e.binsFormed();
        m.preprocessed += e.accessesPreprocessed();
        m.linked += e.futureLinkedMembers();
    }
    return m;
}

void
applyDelta(PassStats &p, const EngineMark &before, const EngineMark &after)
{
    p.traffic = after.traffic.since(before.traffic);
    // stashPeak is a level, not a counter: keep the run's high-water.
    p.traffic.stashPeak = after.traffic.stashPeak;
    p.io = after.io.since(before.io);
    p.bins = after.bins - before.bins;
    p.preprocessed = after.preprocessed - before.preprocessed;
    p.linked = after.linked - before.linked;
}

void
printTrees(const ShardedLaoram &engine)
{
    for (std::uint32_t s = 0; s < engine.numShards(); ++s) {
        const laoram::core::Laoram &e = engine.shard(s);
        const laoram::oram::TreeGeometry &g = e.geometry();
        const laoram::oram::ServerStorage &st = e.storageForAudit();
        std::cout << "tree " << s << ": " << g.numBlocks() << " rows, "
                  << g.numLeaves() << " leaves, " << g.totalSlots()
                  << " slots x " << st.recordBytes() << " B = "
                  << static_cast<double>(g.totalSlots() * st.recordBytes())
                         / (1 << 20)
                  << " MiB\n";
    }
}

namespace {

double
perOp(double v, const PassStats &p)
{
    return p.ops ? v / static_cast<double>(p.ops) : 0.0;
}

} // namespace

void
reportEndToEnd(Result &res, const std::vector<PassStats> &passes,
               double setupSeconds)
{
    std::vector<double> opsPerS, p50, p99;
    for (const PassStats &p : passes) {
        opsPerS.push_back(static_cast<double>(p.ops) / (p.wallNs / 1e9));
        p50.push_back(p.agg.latency.p50Ns / 1e3);
        p99.push_back(p.agg.latency.p99Ns / 1e3);
        std::cout << "pass " << opsPerS.size() << ": " << p.ops
                  << " ops in " << p.wallNs / 1e6 << " ms, "
                  << opsPerS.back() << " ops/s, p50 " << p50.back()
                  << " us, p99 " << p99.back() << " us, "
                  << p.agg.windows << " windows\n";
    }
    // Count metrics come from the first timed pass: the passes run
    // from the same state at a given seed, so it repeats exactly.
    const PassStats &first = passes.front();
    res.metric("setup_s", setupSeconds, "s");
    res.metric("ops_per_s", median(opsPerS), "ops/s");
    res.metric("op_p50_us", median(p50), "us");
    res.metric("op_p99_us", median(p99), "us");
    res.metric("server_bytes_per_op",
               perOp(static_cast<double>(first.traffic.totalBytes()), first),
               "B/op");
    res.metric("sim_us_per_op", perOp(first.simNs, first) / 1e3, "us/op");
    res.metric("peak_rss_mib", peakRssMib(), "MiB");
}

void
reportLayers(Result &res, const PassStats &p, const LayerExtras &x)
{
    const laoram::core::PipelineReport &a = p.agg;
    const double ops = static_cast<double>(p.ops);
    res.metric("core.prep_ms", a.wallPrepNs / 1e6, "ms");
    res.metric("core.serve_stall_ms", (a.wallFillNs + a.wallStallNs) / 1e6,
               "ms");
    res.metric("core.linked_share",
               p.preprocessed ? static_cast<double>(p.linked)
                                    / static_cast<double>(p.preprocessed)
                              : 0.0,
               "ratio");
    res.metric("core.bins_per_op", perOp(static_cast<double>(p.bins), p),
               "bins/op");

    res.metric("oram.path_reads_per_op",
               perOp(static_cast<double>(p.traffic.pathReads), p),
               "reads/op");
    res.metric("oram.dummy_reads_per_op",
               perOp(static_cast<double>(p.traffic.dummyReads), p),
               "reads/op");
    res.metric("oram.stash_peak_blocks",
               static_cast<double>(p.traffic.stashPeak), "blocks");
    res.metric("oram.client_ms", (a.wallServeNs - a.wallIoNs) / 1e6, "ms");

    const double slots =
        static_cast<double>(p.io.slotsRead + p.io.slotsWritten);
    res.metric("storage.io_ms", a.wallIoNs / 1e6, "ms");
    res.metric("storage.slots_per_op", perOp(slots, p), "slots/op");

    const double cryptoBytes =
        x.encrypt ? slots * static_cast<double>(x.recordBytes) : 0.0;
    res.metric("crypto.bytes_per_op", perOp(cryptoBytes, p), "B/op");
    res.metric("crypto.ms", x.encrypt ? x.cryptoDropNs / 1e6 : 0.0, "ms");
    res.metric("crypto.xor_model_ms", cryptoBytes * x.xorNsPerByte / 1e6,
               "ms");

    const laoram::cache::CacheStats &c = a.cache;
    res.metric("cache.hit_rate", c.hitRate(), "ratio");
    res.metric("cache.admission_hits_per_op",
               perOp(static_cast<double>(c.admissionHits), p), "hits/op");
    res.metric("cache.evictions_per_op",
               perOp(static_cast<double>(c.evictions), p), "evictions/op");

    res.metric("serve.ops_per_window",
               a.windows ? ops / static_cast<double>(a.windows) : 0.0,
               "ops/window");
    res.metric("serve.submit_blocked_ms", p.submitBlockedNs / 1e6, "ms");

    res.metric("net.rpcs_per_op", perOp(x.rpcs, p), "rpcs/op");
    res.metric("net.node_service_ms", x.nodeServiceNs / 1e6, "ms");
    res.metric("net.reconnects", x.reconnects, "count");

    res.metric("train.touch_ms", p.touchNs / 1e6, "ms");
    res.metric("obs.trace_overhead_ms",
               (p.wallNs - x.untracedMedianWallNs) / 1e6, "ms");
}

void
startTracing()
{
    laoram::obs::Tracer &tracer = laoram::obs::Tracer::instance();
    tracer.reset();
    tracer.enable(1 << 21);
    laoram::obs::setMetricsEnabled(true);
    laoram::obs::traceSetThreadName("bench");
}

void
finishTracing(Result &res, const EngineMark &end, double nodeRpcs,
              const Options &opt)
{
    laoram::obs::Tracer &tracer = laoram::obs::Tracer::instance();
    tracer.disable();
    laoram::obs::setMetricsEnabled(false);
    res.reconcile("path_read_spans", static_cast<double>(end.io.readOps));
    res.reconcile("path_read_slots", static_cast<double>(end.io.slotsRead));
    res.reconcile("path_write_spans", static_cast<double>(end.io.writeOps));
    res.reconcile("path_write_slots",
                  static_cast<double>(end.io.slotsWritten));
    res.reconcile("meter_blocks_read",
                  static_cast<double>(end.traffic.blocksRead));
    res.reconcile("node_rpcs", nodeRpcs);
    res.reconcile("dropped_spans", static_cast<double>(tracer.dropped()));
    res.traceFile = opt.outDir + "/" + opt.workload + ".trace.json";
    res.check(tracer.writeFile(res.traceFile),
              "cannot write the Chrome trace");
}

double
measureXorNsPerByte(std::uint64_t recordBytes)
{
    laoram::crypto::Key256 key{};
    laoram::crypto::Nonce96 nonce{};
    for (std::size_t i = 0; i < key.size(); ++i)
        key[i] = static_cast<std::uint8_t>(i * 7 + 1);
    std::vector<std::uint8_t> buf(recordBytes, 0x5A);
    constexpr int kCalls = 100000;
    const WallClock::time_point t0 = WallClock::now();
    for (int i = 0; i < kCalls; ++i) {
        nonce[0] = static_cast<std::uint8_t>(i);
        laoram::crypto::ChaCha20::xorStream(key, nonce, 1, buf.data(),
                                            buf.size());
    }
    const double ns = static_cast<double>(laoram::elapsedNs(t0));
    // Fold the buffer into the result so the loop cannot be elided.
    return (ns + (buf[0] == 0xFF ? 1e-9 : 0.0))
           / (static_cast<double>(kCalls)
              * static_cast<double>(recordBytes));
}

void
checkByteLedgers(const PassStats &p, std::uint64_t recordBytes,
                 Result &res, const char *label)
{
    // Two ledgers kept on separate paths: the engine's traffic meter
    // (charged per path from the geometry) and the storage backend's
    // I/O ledger (charged per slot call). blockBytes is set to the
    // record size, so both count the same bytes.
    std::ostringstream w;
    w << label << ": meter slots/bytes (" << p.traffic.blocksRead << "/"
      << p.traffic.bytesRead << " read, " << p.traffic.blocksWritten
      << "/" << p.traffic.bytesWritten << " written) disagree with the "
      << "backend (" << p.io.slotsRead << "/" << p.io.bytesRead
      << " read, " << p.io.slotsWritten << "/" << p.io.bytesWritten
      << " written) at " << recordBytes << " B per record";
    res.check(p.traffic.blocksRead == p.io.slotsRead
                  && p.traffic.blocksWritten == p.io.slotsWritten
                  && p.io.bytesRead == p.io.slotsRead * recordBytes
                  && p.io.bytesWritten == p.io.slotsWritten * recordBytes
                  && p.traffic.bytesRead == p.io.bytesRead
                  && p.traffic.bytesWritten == p.io.bytesWritten,
              w.str());
}

} // namespace e2e
