#include "harness/report.hh"

#include <cstdio>

#include "harness/table.hh"

namespace smthill
{

MachineSnapshot
MachineSnapshot::capture(const SmtCpu &cpu)
{
    MachineSnapshot s;
    s.cycle = cpu.now();
    s.numThreads = cpu.numThreads();
    s.stats = cpu.stats();
    for (int i = 0; i < cpu.numThreads(); ++i) {
        auto tid = static_cast<ThreadId>(i);
        s.dl1Misses[i] = cpu.memory().dl1Misses(tid);
        s.l2Misses[i] = cpu.memory().l2Misses(tid);
    }
    return s;
}

MachineReport
buildReport(const MachineSnapshot &before, const MachineSnapshot &after,
            const std::vector<std::string> &labels)
{
    MachineReport rep;
    rep.cycles = after.cycle - before.cycle;
    if (rep.cycles == 0)
        return rep;
    rep.stalledCycles =
        after.stats.stalledCycles - before.stats.stalledCycles;

    // The snapshot fills cache-miss counters only for the machine's
    // contexts, so the report iterates the same range instead of
    // kMaxThreads (snapshots predating the numThreads field fall
    // back to the old full-width scan over all-zero tails).
    int nt = after.numThreads > 0 ? after.numThreads : kMaxThreads;

    std::uint64_t fetched_total = 0;
    for (int i = 0; i < nt; ++i)
        fetched_total += after.stats.fetched[i] - before.stats.fetched[i];

    std::uint64_t committed_total = 0;
    for (int i = 0; i < nt; ++i) {
        std::uint64_t committed =
            after.stats.committed[i] - before.stats.committed[i];
        std::uint64_t fetched =
            after.stats.fetched[i] - before.stats.fetched[i];
        std::uint64_t flushed =
            after.stats.flushed[i] - before.stats.flushed[i];
        if (committed == 0 && fetched == 0 && flushed == 0)
            continue;

        ThreadReport tr;
        tr.label = static_cast<std::size_t>(i) < labels.size()
                       ? labels[i]
                       : "thread" + std::to_string(i);
        tr.committed = committed;
        committed_total += committed;
        tr.ipc = static_cast<double>(committed) /
                 static_cast<double>(rep.cycles);
        tr.fetchShare = fetched_total
                            ? static_cast<double>(fetched) /
                                  static_cast<double>(fetched_total)
                            : 0.0;
        std::uint64_t branches =
            after.stats.branches[i] - before.stats.branches[i];
        std::uint64_t mispred =
            after.stats.mispredicts[i] - before.stats.mispredicts[i];
        tr.mispredictRate =
            branches ? static_cast<double>(mispred) /
                           static_cast<double>(branches)
                     : 0.0;
        // The raw flush count is reported unconditionally: a thread
        // that was squashed out of every commit (committed == 0)
        // still shows its flush traffic instead of a silent 0.0 rate.
        tr.flushed = flushed;
        if (committed > 0) {
            double kilo_inst = static_cast<double>(committed) / 1000.0;
            tr.dl1Mpki = static_cast<double>(after.dl1Misses[i] -
                                             before.dl1Misses[i]) /
                         kilo_inst;
            tr.l2Mpki = static_cast<double>(after.l2Misses[i] -
                                            before.l2Misses[i]) /
                        kilo_inst;
            tr.flushedPerCommit =
                static_cast<double>(flushed) /
                static_cast<double>(committed);
        }
        tr.lockedFrac =
            static_cast<double>(after.stats.partitionLockCycles[i] -
                                before.stats.partitionLockCycles[i]) /
            static_cast<double>(rep.cycles);
        rep.threads.push_back(std::move(tr));
    }
    rep.totalIpc = static_cast<double>(committed_total) /
                   static_cast<double>(rep.cycles);
    return rep;
}

MachineReport
buildJobReport(const OpenSystemResult &result)
{
    MachineReport rep;
    rep.cycles = result.cycles;
    if (rep.cycles == 0)
        return rep;

    std::uint64_t fetched_total = 0;
    for (const JobRecord &job : result.jobs)
        fetched_total += job.atDepart.fetched - job.atAttach.fetched;

    for (const JobRecord &job : result.jobs) {
        Cycle resident = job.residency();
        if (resident == 0)
            continue;

        std::uint64_t committed = job.committed();
        std::uint64_t fetched =
            job.atDepart.fetched - job.atAttach.fetched;
        std::uint64_t flushed =
            job.atDepart.flushed - job.atAttach.flushed;
        std::uint64_t branches =
            job.atDepart.branches - job.atAttach.branches;
        std::uint64_t mispred =
            job.atDepart.mispredicts - job.atAttach.mispredicts;

        ThreadReport tr;
        tr.label = "job" + std::to_string(job.jobId) + ":" +
                   job.benchmark;
        tr.committed = committed;
        tr.flushed = flushed;
        // Rates are over the job's own residency window, not the
        // whole run: the job wasn't on the machine outside it.
        tr.ipc = static_cast<double>(committed) /
                 static_cast<double>(resident);
        tr.fetchShare = fetched_total
                            ? static_cast<double>(fetched) /
                                  static_cast<double>(fetched_total)
                            : 0.0;
        tr.mispredictRate =
            branches ? static_cast<double>(mispred) /
                           static_cast<double>(branches)
                     : 0.0;
        if (committed > 0) {
            double kilo_inst = static_cast<double>(committed) / 1000.0;
            tr.dl1Mpki =
                static_cast<double>(job.atDepart.dl1Misses -
                                    job.atAttach.dl1Misses) /
                kilo_inst;
            tr.l2Mpki = static_cast<double>(job.atDepart.l2Misses -
                                            job.atAttach.l2Misses) /
                        kilo_inst;
            tr.flushedPerCommit = static_cast<double>(flushed) /
                                  static_cast<double>(committed);
        }
        tr.lockedFrac =
            static_cast<double>(job.atDepart.partitionLockCycles -
                                job.atAttach.partitionLockCycles) /
            static_cast<double>(resident);
        rep.threads.push_back(std::move(tr));
    }
    rep.totalIpc = static_cast<double>(result.committedTotal) /
                   static_cast<double>(rep.cycles);
    return rep;
}

Json
MachineReport::toJson() const
{
    Json root = Json::object();
    root.set("schema", Json("smthill.report.v1"));
    root.set("cycles", Json(cycles));
    root.set("total_ipc", Json(totalIpc));
    root.set("stalled_cycles", Json(stalledCycles));
    Json arr = Json::array();
    for (const ThreadReport &tr : threads) {
        Json t = Json::object();
        t.set("label", Json(tr.label));
        t.set("ipc", Json(tr.ipc));
        t.set("fetch_share", Json(tr.fetchShare));
        t.set("mispredict_rate", Json(tr.mispredictRate));
        t.set("dl1_mpki", Json(tr.dl1Mpki));
        t.set("l2_mpki", Json(tr.l2Mpki));
        t.set("flushed_per_commit", Json(tr.flushedPerCommit));
        t.set("locked_frac", Json(tr.lockedFrac));
        t.set("committed", Json(tr.committed));
        t.set("flushed", Json(tr.flushed));
        arr.push(std::move(t));
    }
    root.set("threads", std::move(arr));
    return root;
}

bool
machineReportFromJson(const Json &j, MachineReport &out, std::string &error)
{
    out = MachineReport{};
    if (!j.isObject() || !j.contains("schema") ||
        j.at("schema").asString() != "smthill.report.v1") {
        error = "not a smthill.report.v1 document";
        return false;
    }
    out.cycles = static_cast<Cycle>(j.at("cycles").asInt());
    out.totalIpc = j.at("total_ipc").asDouble();
    out.stalledCycles =
        static_cast<std::uint64_t>(j.at("stalled_cycles").asInt());
    for (const Json &t : j.at("threads").items()) {
        ThreadReport tr;
        tr.label = t.at("label").asString();
        tr.ipc = t.at("ipc").asDouble();
        tr.fetchShare = t.at("fetch_share").asDouble();
        tr.mispredictRate = t.at("mispredict_rate").asDouble();
        tr.dl1Mpki = t.at("dl1_mpki").asDouble();
        tr.l2Mpki = t.at("l2_mpki").asDouble();
        tr.flushedPerCommit = t.at("flushed_per_commit").asDouble();
        tr.lockedFrac = t.at("locked_frac").asDouble();
        tr.committed =
            static_cast<std::uint64_t>(t.at("committed").asInt());
        tr.flushed =
            static_cast<std::uint64_t>(t.at("flushed").asInt());
        out.threads.push_back(std::move(tr));
    }
    return true;
}

void
MachineReport::print() const
{
    std::printf("interval: %llu cycles, total IPC %.3f\n",
                static_cast<unsigned long long>(cycles), totalIpc);
    Table t({"thread", "ipc", "fetch%", "misp%", "dl1mpki", "l2mpki",
             "flush/ci", "locked%"});
    for (const ThreadReport &tr : threads) {
        t.beginRow();
        t.cell(tr.label);
        t.cell(tr.ipc);
        t.cell(100.0 * tr.fetchShare, 1);
        t.cell(100.0 * tr.mispredictRate, 2);
        t.cell(tr.dl1Mpki, 1);
        t.cell(tr.l2Mpki, 1);
        t.cell(tr.flushedPerCommit, 3);
        t.cell(100.0 * tr.lockedFrac, 1);
    }
    t.print();
}

} // namespace smthill
