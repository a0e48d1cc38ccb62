/**
 * @file
 * e2ebench — one workload of the end-to-end benchmark per run.
 *
 *   e2ebench --workload <train-kaggle-enc|serve-zipf-cache|
 *                        shard-nodes-perm>
 *            --seed N --seconds S --trace 0|1
 *            --out-dir DIR --node-bin PATH
 *   e2ebench --self-test
 *
 * Prints every metric as "metric <name> = <value> <unit>" and, as the
 * last line, one JSON object with the run's result. Exits 1 when any
 * output check failed. Normally started by run.py, which builds it.
 */

#include <cstdlib>
#include <cstring>
#include <exception>
#include <iostream>
#include <string>

#include "util/logging.hh"
#include "workloads.hh"

using namespace e2e;

namespace {

[[noreturn]] void
usage(const char *why)
{
    std::cerr << "e2ebench: " << why
              << "\nusage: e2ebench --workload NAME --seed N --seconds S "
                 "--trace 0|1 --out-dir DIR --node-bin PATH\n"
                 "       e2ebench --self-test\n";
    std::exit(2);
}

} // namespace

int
main(int argc, char **argv)
{
    Options opt;
    opt.processStart = WallClock::now();
    bool selfTest = false;
    for (int i = 1; i < argc; ++i) {
        const std::string a = argv[i];
        if (a == "--self-test") {
            selfTest = true;
            continue;
        }
        if (i + 1 >= argc)
            usage(("missing value for " + a).c_str());
        const std::string v = argv[++i];
        if (a == "--workload")
            opt.workload = v;
        else if (a == "--seed")
            opt.seed = std::strtoull(v.c_str(), nullptr, 10);
        else if (a == "--seconds")
            opt.seconds = std::strtod(v.c_str(), nullptr);
        else if (a == "--trace")
            opt.trace = v == "1";
        else if (a == "--out-dir")
            opt.outDir = v;
        else if (a == "--node-bin")
            opt.nodeBinary = v;
        else
            usage(("unknown option " + a).c_str());
    }
    laoram::setLogLevel(laoram::LogLevel::Warn);
    if (selfTest)
        return runSelfTest();
    if (opt.outDir.empty())
        usage("--out-dir is required");

    Result res;
    try {
        if (opt.workload == "train-kaggle-enc"
            || opt.workload == "shard-nodes-perm") {
            if (opt.workload == "shard-nodes-perm" && opt.nodeBinary.empty())
                usage("--node-bin is required for shard-nodes-perm");
            runReplay(opt, res);
        } else if (opt.workload == "serve-zipf-cache") {
            runServe(opt, res);
        } else {
            usage(("unknown workload '" + opt.workload + "'").c_str());
        }
    } catch (const std::exception &e) {
        res.check(false, std::string("run aborted: ") + e.what());
    }
    if (res.attempted == 0)
        res.attempted = 1; // an aborted run still attempted its set-up
    res.print();
    return res.correct() ? 0 : 1;
}
