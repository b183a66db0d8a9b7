/**
 * @file
 * Table 2 ("Rsc" and "Freq" columns), per Section 4.4.2: for every
 * modeled benchmark, measure (a) the number of integer rename
 * registers needed to reach 95% of its maximum stand-alone IPC, and
 * (b) how often that requirement changes across 64K-cycle epochs —
 * classifying the benchmark as No / Low / High frequency variation.
 *
 * Scale with SMTHILL_VAR_EPOCHS (default 12 epochs for the variation
 * measurement).
 */

#include <cstdio>
#include <vector>

#include "bench_common.hh"
#include "harness/runner.hh"
#include "harness/table.hh"
#include "pipeline/cpu.hh"
#include "trace/spec_profiles.hh"

using namespace smthill;
using namespace smthill::benchutil;

namespace
{

const char *
freqName(int cls)
{
    return cls == 2 ? "High" : cls == 1 ? "Low" : "No";
}

/** IPC of a warm solo machine at a given register share. */
double
ipcAtShare(const SmtCpu &warm, int share, Cycle window)
{
    SmtCpu cpu = warm; // smthill-lint: allow(cpu-copy-hot-path)
    Partition p;
    p.numThreads = 1;
    p.share[0] = share;
    cpu.setPartition(p);
    auto before = cpu.stats().committed[0];
    cpu.run(window);
    return static_cast<double>(cpu.stats().committed[0] - before) /
           static_cast<double>(window);
}

/** Smallest share (stepping by 8) reaching 95% of the 256-reg IPC. */
int
requirementAt(const SmtCpu &warm, Cycle window)
{
    double max_ipc = ipcAtShare(warm, 256, window);
    for (int share = 24; share < 256; share += 8) {
        if (ipcAtShare(warm, share, window) >= 0.95 * max_ipc)
            return share;
    }
    return 256;
}

} // namespace

int
main()
{
    banner("Table 2: per-benchmark resource requirement (Rsc) and "
           "time variation (Freq)");

    const int var_epochs = envPositiveInt("SMTHILL_VAR_EPOCHS", 8);
    const Cycle epoch = 64 * 1024;

    Table t({"app", "type", "cat", "Rsc(paper)", "Rsc(model)",
             "Freq(paper)", "changes/epoch", "Freq(model)"});

    for (const auto &name : specBenchmarkNames()) {
        const SpecInfo &info = specInfo(name);

        SmtConfig cfg;
        cfg.numThreads = 1;
        std::vector<StreamGenerator> gens;
        gens.emplace_back(specProfile(name), 0);
        SmtCpu cpu(cfg, std::move(gens));
        cpu.run(512 * 1024); // warm

        // (a) Steady-state requirement over a long window.
        int rsc = requirementAt(cpu, 2 * epoch);

        // (b) Per-epoch requirement trajectory.
        int changes = 0;
        int prev = -1;
        SmtCpu walker = cpu; // smthill-lint: allow(cpu-copy-hot-path)
        for (int e = 0; e < var_epochs; ++e) {
            int req = requirementAt(walker, epoch);
            if (prev >= 0 && std::abs(req - prev) >= 16)
                ++changes;
            prev = req;
            walker.clearPartition();
            walker.run(epoch);
        }
        double rate = var_epochs > 1
                          ? static_cast<double>(changes) / (var_epochs - 1)
                          : 0.0;
        const char *model_freq =
            rate > 0.34 ? "High" : rate > 0.09 ? "Low" : "No";

        t.beginRow();
        t.cell(name);
        t.cell(std::string(info.isFp ? "FP" : "Int"));
        t.cell(std::string(info.isMem ? "MEM" : "ILP"));
        t.cell(static_cast<std::int64_t>(info.paperRsc));
        t.cell(static_cast<std::int64_t>(rsc));
        t.cell(std::string(freqName(info.freqClass)));
        t.cell(rate, 2);
        t.cell(std::string(model_freq));
    }
    t.print();

    std::printf("\nshape to check: MEM benchmarks with bursty misses "
                "(swim, art, ammp, twolf, vpr) and long-distance ILP\n"
                "(gap, wupwise) need large windows; short-chain ILP "
                "(perlbmk, bzip2, fma3d, lucas) needs small ones.\n");
    return 0;
}
