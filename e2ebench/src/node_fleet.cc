#include "node_fleet.hh"

#include <fcntl.h>
#include <poll.h>
#include <signal.h>
#include <sys/prctl.h>
#include <sys/stat.h>
#include <sys/wait.h>
#include <unistd.h>

#include <cerrno>
#include <chrono>
#include <cstdlib>
#include <fstream>
#include <iostream>
#include <sstream>
#include <stdexcept>
#include <thread>

namespace e2e {

namespace {

constexpr int kStartDeadlineMs = 10000;
constexpr int kDrainDeadlineMs = 10000;

std::string
nodeFile(const std::string &dir, std::size_t i, const char *ext)
{
    return dir + "/node-" + std::to_string(i) + ext;
}

/** Read one '\n'-terminated line from @p fd within @p deadlineMs. */
bool
readLine(int fd, std::string &line, int deadlineMs)
{
    const auto end = std::chrono::steady_clock::now()
                     + std::chrono::milliseconds(deadlineMs);
    char c = 0;
    for (;;) {
        const auto left = std::chrono::duration_cast<
            std::chrono::milliseconds>(end
                                       - std::chrono::steady_clock::now());
        if (left.count() <= 0)
            return false;
        pollfd p{fd, POLLIN, 0};
        const int r = ::poll(&p, 1, static_cast<int>(left.count()));
        if (r < 0 && errno == EINTR)
            continue;
        if (r <= 0)
            return false;
        const ssize_t n = ::read(fd, &c, 1);
        if (n < 0 && errno == EINTR)
            continue;
        if (n <= 0)
            return false;
        if (c == '\n')
            return true;
        line += c;
    }
}

/** waitpid with a deadline; true when the child was reaped. */
bool
reapWithin(pid_t pid, int &status, int deadlineMs)
{
    const auto end = std::chrono::steady_clock::now()
                     + std::chrono::milliseconds(deadlineMs);
    for (;;) {
        const pid_t r = ::waitpid(pid, &status, WNOHANG);
        if (r == pid)
            return true;
        if (r < 0 && errno != EINTR)
            return true; // not our child any more: nothing to reap
        if (std::chrono::steady_clock::now() >= end)
            return false;
        std::this_thread::sleep_for(std::chrono::milliseconds(2));
    }
}

std::map<std::string, double>
parseExposition(const std::string &path)
{
    std::map<std::string, double> out;
    std::ifstream in(path);
    std::string line;
    while (std::getline(in, line)) {
        if (line.empty() || line[0] == '#')
            continue;
        std::istringstream is(line);
        std::string name;
        double v = 0.0;
        if (is >> name >> v)
            out[name] = v;
    }
    return out;
}

} // namespace

double
NodeReport::get(const std::string &name) const
{
    const auto it = metrics.find(name);
    return it == metrics.end() ? 0.0 : it->second;
}

NodeFleet::NodeFleet(const std::string &binary,
                     const std::string &parentDir,
                     const std::vector<NodeSpec> &specs)
{
    std::string templ = parentDir + "/nodes-XXXXXX";
    if (::mkdtemp(templ.data()) == nullptr)
        throw std::runtime_error("cannot create node temp directory in "
                                 + parentDir);
    dir = templ;
    try {
        for (std::size_t i = 0; i < specs.size(); ++i)
            spawn(binary, specs[i], i);
    } catch (...) {
        stop();
        throw;
    }
}

NodeFleet::~NodeFleet()
{
    stop();
}

void
NodeFleet::spawn(const std::string &binary, const NodeSpec &spec,
                 std::size_t index)
{
    // Everything the child needs is built before fork(): between fork
    // and exec a multi-threaded parent's child may only make
    // async-signal-safe calls.
    std::vector<std::string> args = {
        binary,
        "--listen", "127.0.0.1:0",
        "--blocks", std::to_string(spec.blocks),
        "--block-bytes", std::to_string(spec.blockBytes),
        "--payload", std::to_string(spec.payloadBytes),
        "--bucket-z", std::to_string(spec.bucketZ),
        "--metrics-prom", nodeFile(dir, index, ".prom"),
        "--latency-us", std::to_string(spec.latencyUs),
        "--mbps", std::to_string(spec.mbps),
    };
    std::vector<char *> argv;
    for (std::string &a : args)
        argv.push_back(a.data());
    argv.push_back(nullptr);
    const std::string log = nodeFile(dir, index, ".log");

    int pfd[2];
    if (::pipe2(pfd, O_CLOEXEC) != 0)
        throw std::runtime_error("cannot create node stdout pipe");
    const pid_t parent = ::getpid();
    const pid_t pid = ::fork();
    if (pid < 0) {
        ::close(pfd[0]);
        ::close(pfd[1]);
        throw std::runtime_error("fork failed");
    }
    if (pid == 0) {
        ::prctl(PR_SET_PDEATHSIG, SIGKILL);
        if (::getppid() != parent)
            ::_exit(127);
        const int lfd =
            ::open(log.c_str(), O_WRONLY | O_CREAT | O_TRUNC, 0600);
        if (::dup2(pfd[1], 1) < 0 || lfd < 0 || ::dup2(lfd, 2) < 0)
            ::_exit(127);
        ::execv(argv[0], argv.data());
        ::_exit(127);
    }
    ::close(pfd[1]);
    pids.push_back(pid);
    stdoutFds.push_back(pfd[0]);

    // "laoram_node serving <n> slots x <r> B (dram) on <host:port>"
    std::string line;
    const bool got = readLine(pfd[0], line, kStartDeadlineMs);
    const std::size_t at = line.rfind(" on ");
    if (!got || at == std::string::npos)
        throw std::runtime_error("laoram_node " + std::to_string(index)
                                 + " did not report its endpoint: '"
                                 + line + "'");
    eps.push_back(line.substr(at + 4));
}

const std::vector<NodeReport> &
NodeFleet::stop()
{
    if (stopped)
        return reports;
    stopped = true;
    for (const pid_t pid : pids)
        ::kill(pid, SIGTERM);
    reports.assign(pids.size(), NodeReport{});
    clean = true;
    for (std::size_t i = 0; i < pids.size(); ++i) {
        int status = 0;
        NodeReport &r = reports[i];
        if (!reapWithin(pids[i], status, kDrainDeadlineMs)) {
            r.killed = true;
            ::kill(pids[i], SIGKILL);
            ::waitpid(pids[i], &status, 0);
        }
        r.exitedCleanly = !r.killed && WIFEXITED(status)
                          && WEXITSTATUS(status) == 0;
        errno = 0;
        if (::kill(pids[i], 0) == 0 || errno != ESRCH)
            clean = false;
        ::close(stdoutFds[i]);
        r.metrics = parseExposition(nodeFile(dir, i, ".prom"));
        const std::string log = nodeFile(dir, i, ".log");
        if (!r.exitedCleanly) {
            std::ifstream in(log);
            std::cerr << "laoram_node " << i << " did not drain cleanly; "
                      << "its log:\n" << in.rdbuf() << std::endl;
        }
        ::unlink(log.c_str());
        ::unlink(nodeFile(dir, i, ".prom").c_str());
    }
    struct stat st;
    if (::rmdir(dir.c_str()) != 0 || ::stat(dir.c_str(), &st) == 0)
        clean = false;
    return reports;
}

} // namespace e2e
