/**
 * @file
 * The repository benchmark's entry point.
 *
 *   perfbench --workload <train_cd|serve_miss|serve_hot|serve_canary>
 *             --seed <n> --seconds <s> --trace <0|1>
 *             [--work-dir <dir>] [--trace-out <file>]
 *
 * Inputs derive from --seed only.  --trace 0 reports the end-to-end
 * metrics; --trace 1 records spans, runs the per-layer probes and
 * reports the per-layer metrics (see README.md).  Scratch archives go
 * to a per-process directory under --work-dir, removed at exit.
 */

#include <unistd.h>

#include <cstdio>
#include <cstdlib>
#include <exception>
#include <filesystem>
#include <string>

#include "common.hpp"
#include "util/logging.hpp"

namespace {

/** Engine worker budget: the host has four cores, and the epoll loop
 *  and the load generator each take one. */
constexpr const char *kEngineWorkers = "2";

int
usage(const char *why)
{
    std::fprintf(stderr,
                 "perfbench: %s\nusage: perfbench --workload <train_cd|"
                 "serve_miss|serve_hot|serve_canary> --seed <n> "
                 "--seconds <s> --trace <0|1> [--work-dir <dir>] "
                 "[--trace-out <file>]\n",
                 why);
    return 2;
}

} // namespace

int
main(int argc, char **argv)
{
    namespace fs = std::filesystem;
    using perfbench::Options;

    Options options;
    std::string workRoot = ".bench_work";
    for (int i = 1; i + 1 < argc; i += 2) {
        const std::string flag = argv[i], value = argv[i + 1];
        if (flag == "--workload")
            options.workload = value;
        else if (flag == "--seed")
            options.seed = std::strtoull(value.c_str(), nullptr, 10);
        else if (flag == "--seconds")
            options.seconds = std::strtod(value.c_str(), nullptr);
        else if (flag == "--trace")
            options.trace = value == "1";
        else if (flag == "--work-dir")
            workRoot = value;
        else if (flag == "--trace-out")
            options.traceOut = value;
        else
            return usage(("unknown flag " + flag).c_str());
    }
    if (argc % 2 == 0)
        return usage("every flag takes a value");
    const bool training = options.workload == "train_cd";
    if (!training && options.workload != "serve_miss" &&
        options.workload != "serve_hot" &&
        options.workload != "serve_canary")
        return usage("unknown or missing --workload");
    if (!(options.seconds > 0))
        return usage("--seconds must be positive");

    ::setenv("ISINGRBM_THREADS", kEngineWorkers, 0);
    options.workDir = workRoot + "/" + options.workload + "-" +
                      std::to_string(::getpid());
    perfbench::Result result;
    perfbench::Tracer tracer(options.trace);
    int status = 0;
    try {
        // Library fatal errors throw here instead of exiting, so the
        // scratch directory is still removed.
        ising::util::FatalThrowScope fatalThrows;
        fs::remove_all(options.workDir);
        fs::create_directories(options.workDir);
        perfbench::placeThreads();
        if (training)
            perfbench::runTrain(options, result, tracer);
        else
            perfbench::runServe(options, result, tracer);
        if (!tracer.write(options.traceOut))
            std::fprintf(stderr, "perfbench: cannot write %s\n",
                         options.traceOut.c_str());
    } catch (const std::exception &e) {
        std::fprintf(stderr, "perfbench: %s: %s\n",
                     options.workload.c_str(), e.what());
        status = 1;
    }
    std::error_code ignored;
    fs::remove_all(options.workDir, ignored);
    if (status != 0)
        return status;
    perfbench::finishMetrics(result, options.trace);
    perfbench::printResult(result);
    return 0;
}
