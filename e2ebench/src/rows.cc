#include "rows.hh"

#include <algorithm>
#include <cstring>

#include "common.hh"
#include "train/sgd.hh"

namespace e2e {

namespace {

constexpr std::size_t kWeights = 12;
constexpr std::size_t kWeightOff = 16;
constexpr float kLearningRate = 0.05f;

bool
allZero(const std::uint8_t *p, std::size_t n)
{
    return std::all_of(p, p + n, [](std::uint8_t b) { return b == 0; });
}

std::uint32_t
trainChecksum(const std::uint8_t *row)
{
    std::uint8_t tmp[kPayloadBytes];
    std::memcpy(tmp, row, kPayloadBytes);
    std::memset(tmp + 12, 0, 4);
    return fnv1a(tmp, kPayloadBytes);
}

void
initRow(std::uint8_t *row, laoram::core::BlockId id)
{
    float w[kWeights];
    for (std::size_t i = 0; i < kWeights; ++i)
        w[i] = static_cast<float>(mix64(id * 131 + i) & 0xFFFF) / 65536.0f
               - 0.5f;
    std::memcpy(row + kWeightOff, w, sizeof(w));
}

/** Touch number @p touch of row @p id: one SGD step, then re-seal. */
void
stepRow(std::uint8_t *row, laoram::core::BlockId id, std::uint32_t touch)
{
    // Momentum 0 keeps the optimizer stateless, so one instance per
    // serving thread is safe.
    thread_local laoram::train::SgdOptimizer sgd(kLearningRate);
    float w[kWeights];
    float g[kWeights];
    std::memcpy(w, row + kWeightOff, sizeof(w));
    for (std::size_t i = 0; i < kWeights; ++i) {
        const std::uint64_t h =
            mix64((id << 20) ^ (std::uint64_t{touch} << 4) ^ i);
        g[i] = static_cast<float>(static_cast<int>(h & 0xFFF) - 2048)
               / 65536.0f;
    }
    sgd.step(id, laoram::Span<float>(w, kWeights),
             laoram::Span<const float>(g, kWeights));
    std::memcpy(row + kWeightOff, w, sizeof(w));
    const std::uint64_t id64 = id;
    std::memcpy(row, &id64, 8);
    std::memcpy(row + 8, &touch, 4);
    const std::uint32_t sum = trainChecksum(row);
    std::memcpy(row + 12, &sum, 4);
}

} // namespace

void
TouchModel::touch(laoram::core::BlockId id, std::vector<std::uint8_t> &row)
{
    const WallClock::time_point t0 =
        timeTouches ? WallClock::now() : WallClock::time_point{};
    if (row.size() != kPayloadBytes) {
        corruptSeen.fetch_add(1, std::memory_order_relaxed);
        return;
    }
    // The row must carry exactly the touches the model counted: a lost
    // update or a stale copy has a valid checksum but an older count.
    std::uint8_t *p = row.data();
    std::uint32_t touches = 0;
    bool bad = false;
    if (allZero(p, kPayloadBytes)) {
        bad = counts[id] != 0;
        initRow(p, id);
    } else {
        std::uint64_t storedId = 0;
        std::uint32_t sum = 0;
        std::memcpy(&storedId, p, 8);
        std::memcpy(&touches, p + 8, 4);
        std::memcpy(&sum, p + 12, 4);
        bad = storedId != id || sum != trainChecksum(p)
              || touches != counts[id];
    }
    if (bad)
        corruptSeen.fetch_add(1, std::memory_order_relaxed);
    stepRow(p, id, touches + 1);
    ++counts[id];
    if (timeTouches)
        touchNs.fetch_add(laoram::elapsedNs(t0),
                          std::memory_order_relaxed);
}

void
TouchModel::attach(laoram::core::ShardedLaoram &engine)
{
    engine.setTouchCallback(
        [this](laoram::core::BlockId id, std::vector<std::uint8_t> &row) {
            touch(id, row);
        });
}

std::vector<std::uint8_t>
TouchModel::expectedRow(laoram::core::BlockId id, std::uint32_t touches)
{
    std::vector<std::uint8_t> row(kPayloadBytes, 0);
    if (touches == 0)
        return row;
    initRow(row.data(), id);
    for (std::uint32_t t = 1; t <= touches; ++t)
        stepRow(row.data(), id, t);
    return row;
}

void
serveRow(laoram::core::BlockId id, std::uint32_t version,
         std::vector<std::uint8_t> &out)
{
    out.assign(kPayloadBytes, 0);
    if (version == 0)
        return;
    const std::uint64_t id64 = id;
    std::memcpy(out.data(), &id64, 8);
    std::memcpy(out.data() + 8, &version, 4);
    const std::uint32_t tag = static_cast<std::uint32_t>(
        mix64(id64 ^ (std::uint64_t{version} << 40)));
    std::memcpy(out.data() + 12, &tag, 4);
    for (std::size_t k = 0; k < 6; ++k) {
        const std::uint64_t word =
            mix64((id64 << 24) ^ (std::uint64_t{version} << 3) ^ k);
        std::memcpy(out.data() + 16 + 8 * k, &word, 8);
    }
}

bool
serveRowVersion(laoram::core::BlockId id,
                const std::vector<std::uint8_t> &bytes,
                std::uint32_t &version)
{
    if (bytes.size() != kPayloadBytes)
        return false;
    if (allZero(bytes.data(), bytes.size())) {
        version = 0;
        return true;
    }
    std::memcpy(&version, bytes.data() + 8, 4);
    if (version == 0)
        return false;
    std::vector<std::uint8_t> expect;
    serveRow(id, version, expect);
    return expect == bytes;
}

void
checkLookups(const laoram::serve::BatchResult &result,
             const std::vector<LookupExpect> &expects,
             const std::vector<std::uint32_t> &latest,
             std::uint64_t &ownViolations, std::uint64_t &foreignViolations)
{
    for (const LookupExpect &e : expects) {
        std::uint32_t v = 0;
        const bool valid =
            result.results.size() > e.slot
            && result.results[e.slot].id == e.id
            && serveRowVersion(e.id, result.results[e.slot].payload, v);
        if (e.own)
            ownViolations += !valid || v != e.version;
        else
            foreignViolations += !valid || v > latest[e.id];
    }
}

std::vector<std::uint8_t>
readRow(laoram::core::ShardedLaoram &engine, laoram::core::BlockId id)
{
    const auto &split = engine.splitter();
    std::vector<std::uint8_t> buf;
    engine.shard(split.shardOf(id)).readBlock(split.localId(id), buf);
    return buf;
}

} // namespace e2e
