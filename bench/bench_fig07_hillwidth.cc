/**
 * @file
 * Figures 6 and 7 (hill peak analysis, Section 3.3.1): for every
 * two-thread workload, run OFF-LINE with full curves retained and
 * report hill-width_N averaged across epochs for
 * N in {0.99, 0.98, 0.97, 0.95, 0.90}.
 *
 * The paper finds 5 dull-peak workloads (equake-bzip2, mcf-eon,
 * fma3d-mesa, gzip-bzip2, lucas-crafty: width_.99 >= 32) and 14
 * sharp-peak ones (width_.99 <= 8).
 *
 * Scale with SMTHILL_EPOCHS (default 6) and SMTHILL_OFFLINE_STRIDE
 * (default 4 — widths below the stride are unmeasurable).
 */

#include <cstdio>

#include "bench_common.hh"
#include "core/hill_width.hh"
#include "core/offline_exhaustive.hh"
#include "harness/table.hh"

using namespace smthill;
using namespace smthill::benchutil;

int
main()
{
    banner("Figure 7: hill-width_N per 2-thread workload "
           "(averaged over epochs)");

    RunConfig rc = benchRunConfig(4);
    const int stride = offlineStride(rc, 8);

    Table t({"workload", "group", "w.99", "w.98", "w.97", "w.95", "w.90",
             "peak"});

    for (const Workload &w : twoThreadWorkloads()) {
        auto solo = soloIpcs(w, rc, soloWindow(rc));
        OfflineConfig oc;
        oc.epochSize = rc.epochSize;
        oc.stride = stride;
        oc.singleIpc = solo;
        OfflineExhaustive off(oc);

        SmtCpu cpu = makeCpu(w, rc);
        double w99 = 0, w98 = 0, w97 = 0, w95 = 0, w90 = 0;
        for (int e = 0; e < rc.epochs; ++e) {
            OfflineEpoch rec = off.stepEpoch(cpu);
            HillWidthProfile p =
                hillWidthProfile(rec.curveShares, rec.curve);
            w99 += p.w99;
            w98 += p.w98;
            w97 += p.w97;
            w95 += p.w95;
            w90 += p.w90;
        }
        double n = rc.epochs;
        t.beginRow();
        t.cell(w.name);
        t.cell(w.group);
        t.cell(w99 / n, 1);
        t.cell(w98 / n, 1);
        t.cell(w97 / n, 1);
        t.cell(w95 / n, 1);
        t.cell(w90 / n, 1);
        t.cell(std::string(w99 / n >= 32 ? "dull"
                           : w99 / n <= 8 ? "sharp"
                                          : "medium"));
    }
    t.print();

    std::printf("\nshape to check: a mix of dull and sharp peaks, with "
                "small workloads (that fit the window) dull and\n"
                "window-hungry MEM pairs sharp. Sharp peaks are where "
                "learning the exact partitioning pays (Section 3.3.1).\n");
    return 0;
}
