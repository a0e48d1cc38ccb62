/**
 * @file
 * The benchmark's own row formats and the models it checks the
 * program's outputs against.
 *
 * Training rows (replay workloads), 64 bytes:
 *   [0, 8)   row id
 *   [8, 12)  touches applied so far
 *   [12, 16) FNV-1a checksum of every other byte
 *   [16, 64) 12 float weights, one SGD step per touch
 * The model is the per-row touch count the benchmark's touch callback
 * keeps in its own array; a row's expected bytes are the fresh row
 * with that many touches applied.
 *
 * Serving rows (serve-zipf-cache), 64 bytes: a pure function of
 * (row id, version), version 0 being the all-zero initial row. The
 * model is the latest version each owner session submitted.
 */

#ifndef E2EBENCH_ROWS_HH
#define E2EBENCH_ROWS_HH

#include <atomic>
#include <cstdint>
#include <vector>

#include "core/sharded_laoram.hh"
#include "serve/request.hh"

namespace e2e {

constexpr std::uint64_t kPayloadBytes = 64;
/** Stored record = 16 B header (id + leaf) + payload. */
constexpr std::uint64_t kRecordBytes = 16 + kPayloadBytes;

/** Training-row touch model shared by the replay workloads. */
class TouchModel
{
  public:
    explicit TouchModel(std::uint64_t rows) : counts(rows, 0) {}

    /**
     * The engine touch callback: checks the incoming row (id and
     * checksum), applies one SGD step and counts the touch. Shards
     * touch disjoint rows, so concurrent calls never share a count.
     */
    void touch(laoram::core::BlockId id, std::vector<std::uint8_t> &row);

    /** Install touch() as @p engine's callback. */
    void attach(laoram::core::ShardedLaoram &engine);

    /** Expected bytes of row @p id after @p touches touches. */
    static std::vector<std::uint8_t> expectedRow(laoram::core::BlockId id,
                                                 std::uint32_t touches);

    std::vector<std::uint32_t> counts;
    std::atomic<std::uint64_t> corruptSeen{0};
    std::atomic<std::int64_t> touchNs{0};
    bool timeTouches = false;
};

/** Bytes of serving row @p id at @p version (zeros at version 0). */
void serveRow(laoram::core::BlockId id, std::uint32_t version,
              std::vector<std::uint8_t> &out);

/**
 * Decode the version of serving row @p id from @p bytes; false when
 * the bytes are not exactly serveRow(id, version) for any version.
 */
bool serveRowVersion(laoram::core::BlockId id,
                     const std::vector<std::uint8_t> &bytes,
                     std::uint32_t &version);

/** What the serving model expects of one lookup a session submitted. */
struct LookupExpect
{
    std::uint32_t slot = 0;    ///< index of the op in its batch
    laoram::core::BlockId id = 0;
    bool own = false;          ///< the session owns the row
    std::uint32_t version = 0; ///< exact version, for own rows
};

/**
 * Check the lookups of one batch result against the serving model: a
 * session reads its own latest write; a row of another session holds
 * some version its owner already submitted (never a newer one, never
 * foreign bytes). @p latest is each row's latest submitted version.
 * Adds one to @p ownViolations or @p foreignViolations per failure.
 */
void checkLookups(const laoram::serve::BatchResult &result,
                  const std::vector<LookupExpect> &expects,
                  const std::vector<std::uint32_t> &latest,
                  std::uint64_t &ownViolations,
                  std::uint64_t &foreignViolations);

/** Read global row @p id back through its shard's ORAM. */
std::vector<std::uint8_t> readRow(laoram::core::ShardedLaoram &engine,
                                  laoram::core::BlockId id);

} // namespace e2e

#endif // E2EBENCH_ROWS_HH
