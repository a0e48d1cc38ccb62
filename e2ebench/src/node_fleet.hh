/**
 * @file
 * A fleet of laoram_node child processes, one per shard tree.
 *
 * Each node listens on an ephemeral loopback TCP port, logs and
 * writes its Prometheus exposition into the fleet's private temp
 * directory, and dies with the benchmark (PR_SET_PDEATHSIG). stop()
 * sends SIGTERM, waits for a clean drain (exit code 0) up to a
 * deadline, and sends SIGKILL after it; the destructor does the same
 * on every other exit path, then removes the temp directory.
 */

#ifndef E2EBENCH_NODE_FLEET_HH
#define E2EBENCH_NODE_FLEET_HH

#include <sys/types.h>

#include <cstdint>
#include <map>
#include <string>
#include <vector>

namespace e2e {

/** Geometry flags one node is started with. */
struct NodeSpec
{
    std::uint64_t blocks = 0;
    std::uint64_t blockBytes = 0;
    std::uint64_t payloadBytes = 0;
    std::uint64_t bucketZ = 4;
    std::uint64_t latencyUs = 0; ///< shaped per-RPC link latency
    std::uint64_t mbps = 0;      ///< shaped link bandwidth, MB/s (0 = none)
};

/** What a node reported after it drained. */
struct NodeReport
{
    bool exitedCleanly = false; ///< exited on SIGTERM with code 0
    bool killed = false;        ///< needed SIGKILL after the deadline
    std::map<std::string, double> metrics; ///< Prometheus exposition

    double get(const std::string &name) const;
};

class NodeFleet
{
  public:
    /**
     * Spawn one node per spec under a fresh private directory inside
     * @p parentDir; throws std::runtime_error when a node cannot be
     * started or does not report its endpoint in time.
     */
    NodeFleet(const std::string &binary, const std::string &parentDir,
              const std::vector<NodeSpec> &specs);
    ~NodeFleet();

    NodeFleet(const NodeFleet &) = delete;
    NodeFleet &operator=(const NodeFleet &) = delete;

    const std::vector<std::string> &endpoints() const { return eps; }

    /**
     * Drain every node (SIGTERM, then SIGKILL after the deadline),
     * read each node's exposition and remove the private directory.
     * Idempotent; returns the per-node reports.
     */
    const std::vector<NodeReport> &stop();

    /** True once stop() left no child process and no file behind. */
    bool leftNothingBehind() const { return clean; }

  private:
    void spawn(const std::string &binary, const NodeSpec &spec,
               std::size_t index);

    std::string dir;
    std::vector<pid_t> pids;
    std::vector<int> stdoutFds;
    std::vector<std::string> eps;
    std::vector<NodeReport> reports;
    bool stopped = false;
    bool clean = false;
};

} // namespace e2e

#endif // E2EBENCH_NODE_FLEET_HH
