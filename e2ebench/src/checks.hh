/**
 * @file
 * Method-property checks, computed by the benchmark apart from the
 * program: the server-visible slot stream must read whole
 * root-to-leaf path unions with full buckets, the leaves of real path
 * reads must be uniform, and path reads per access must lie in
 * [1/S, 1].
 */

#ifndef E2EBENCH_CHECKS_HH
#define E2EBENCH_CHECKS_HH

#include <cstdint>
#include <memory>
#include <string>
#include <unordered_map>
#include <vector>

#include "common.hh"
#include "core/sharded_laoram.hh"
#include "oram/tree_geometry.hh"

namespace e2e {

/**
 * Audits the (slot, isWrite) stream one tree's storage sees, as
 * delivered by ServerStorage::setAccessSink. Consecutive reads form
 * one burst (a path or a path union); each burst must be exactly the
 * union of the root-to-leaf paths of the leaf buckets it touches,
 * every bucket read in full. The leaves of all bursts feed a
 * chi-square uniformity test.
 */
class PathAudit
{
  public:
    static constexpr std::uint64_t kLeafBins = 64;

    explicit PathAudit(const laoram::oram::TreeGeometry &geom);

    /** The access sink. */
    void onSlot(std::uint64_t slot, bool isWrite);

    /** Close the open burst (call after the audited pass). */
    void finish();

    std::uint64_t bursts = 0;
    std::uint64_t badBursts = 0;
    std::uint64_t leafReads = 0;
    std::vector<std::uint64_t> leafBins;

  private:
    void closeBurst();

    const laoram::oram::TreeGeometry &geom;
    std::uint64_t firstLeafNode = 0;
    std::unordered_map<std::uint64_t, std::uint64_t> burst; ///< node -> slots
};

/**
 * One PathAudit per shard tree of @p engine, installed as that tree's
 * access sink until finish() or destruction removes it.
 */
class ShardAudits
{
  public:
    explicit ShardAudits(laoram::core::ShardedLaoram &engine);
    ~ShardAudits();

    ShardAudits(const ShardAudits &) = delete;
    ShardAudits &operator=(const ShardAudits &) = delete;

    /** Remove the sinks and record every tree's checks. */
    void finish(Result &res);

  private:
    void detach();

    laoram::core::ShardedLaoram &engine;
    std::vector<std::unique_ptr<PathAudit>> audits;
};

/** Chi-square statistic of @p bins against a uniform expectation. */
double chiSquareUniform(const std::vector<std::uint64_t> &bins);

/**
 * Upper critical value of a chi-square with @p dof degrees of
 * freedom at one-sided tail probability 1e-6 (Wilson-Hilferty).
 */
double chiSquareCritical(double dof);

/** Record the audit's checks (burst shape and leaf uniformity). */
void checkPathAudit(const PathAudit &audit, Result &res,
                    const std::string &label);

/** Path reads per access must lie in [1/S, 1]. */
void checkPathReadsPerOp(double pathReadsPerOp, std::uint64_t superblock,
                         Result &res, const std::string &label);

} // namespace e2e

#endif // E2EBENCH_CHECKS_HH
