#include "core/epoch_learner.hh"

#include <algorithm>

#include "common/log.hh"

namespace smthill
{

namespace
{

Json
ipcJson(const IpcSample &s)
{
    Json arr = Json::array();
    for (int i = 0; i < s.numThreads; ++i)
        arr.push(Json(s.ipc[i]));
    return arr;
}

} // namespace

EpochLearner::EpochLearner(PerfMetric metric, Cycle software_cost,
                           int min_share, bool sample_solo,
                           int sample_period,
                           const std::array<double, kMaxThreads> &oracle_solo)
    : perfMetric(metric), softwareCost(software_cost), minShare(min_share),
      sampleSolo(sample_solo), samplePeriod(sample_period),
      oracleSolo(oracle_solo)
{
}

Json
EpochLearner::shareJson(const Partition &p)
{
    Json arr = Json::array();
    for (int i = 0; i < p.numThreads; ++i)
        arr.push(Json(p.share[i]));
    return arr;
}

void
EpochLearner::attach(SmtCpu &cpu)
{
    int nt = cpu.numThreads();
    // In the very first round the anchor defaults to an equal
    // partition for every thread (Figure 8, footnote).
    anchorPartition = Partition::equal(nt, cpu.config().intRegs);
    roundPerf.fill(0.0);
    singleIpcEst = oracleSolo;
    lastCommitted = cpu.stats().committed;
    lastEpochStart = cpu.now();
    lastElapsed = 0;
    algEpoch = 0;
    epochsSinceSample = 0;
    sampleRotation = 0;
    samplingThread = -1;
    bootstrapPending = 0;
    roundDirty = false;
    needsSolo.fill(false);
    residentAccum.fill(0);
    residentFrom.fill(cpu.now());
    int na = 0;
    for (int i = 0; i < nt; ++i) {
        activeMask[i] = cpu.threadEnabled(static_cast<ThreadId>(i));
        na += activeMask[i] ? 1 : 0;
    }
    openSystemMode = na < nt;
    for (int i = 0; i < nt; ++i)
        cpu.setFetchLocked(static_cast<ThreadId>(i), false);
    if (openSystemMode) {
        // Attached over a partially occupied (or empty) machine: the
        // anchor covers only the active set, and solo bootstrapping is
        // driven per-context through needsSolo as jobs arrive rather
        // than by the closed-system chain below.
        anchorPartition =
            redistributeDetached(anchorPartition, activeMask, minShare);
        if (sampleSolo)
            for (int i = 0; i < nt; ++i)
                needsSolo[i] = activeMask[i];
    }
    restart(cpu);

    // Bootstrap the stand-alone IPC estimates (Section 4.2): before
    // any estimate exists, WIPC/HWIPC degenerate into raw-IPC
    // learning (evalMetric's solo() fallback), so the first epochs
    // sample every thread solo once. Learning epochs begin only
    // after the last bootstrap sample lands.
    if (!openSystemMode && sampleSolo && nt > 1) {
        bootstrapPending = nt;
        beginSample(cpu, 0);
        sampleRotation = 1 % nt;
    } else {
        resume(cpu, na);
    }
}

int
EpochLearner::numActive(int nt) const
{
    int na = 0;
    for (int i = 0; i < nt; ++i)
        na += activeMask[i] ? 1 : 0;
    return na;
}

int
EpochLearner::activeAt(int k) const
{
    int seen = 0;
    for (int i = 0; i < anchorPartition.numThreads; ++i)
        if (activeMask[i] && seen++ == k)
            return i;
    fatal(msg(name(), ": no active thread at index ", k, " (", seen,
              " active)"));
    return -1;
}

int
EpochLearner::nextNeedsSolo() const
{
    for (int i = 0; i < anchorPartition.numThreads; ++i)
        if (activeMask[i] && needsSolo[i])
            return i;
    return -1;
}

bool
EpochLearner::estimatesReady() const
{
    // Meaningful only for metrics that use the estimates.
    for (int i = 0; i < anchorPartition.numThreads; ++i)
        if (singleIpcEst[i] <= 0.0)
            return false;
    return anchorPartition.numThreads > 0;
}

void
EpochLearner::installAfterChurn(SmtCpu &cpu)
{
    if (numActive(cpu.numThreads()) >= 2)
        cpu.setPartition(anchorPartition);
    else
        cpu.clearPartition();
}

Json
EpochLearner::churnJson(ThreadId tid) const
{
    Json args = Json::object();
    args.set("thread", static_cast<int>(tid));
    churnArgs(args);
    args.set("anchor", shareJson(anchorPartition));
    return args;
}

void
EpochLearner::threadAttached(SmtCpu &cpu, ThreadId tid)
{
    openSystemMode = true;
    activeMask[tid] = true;
    residentAccum[tid] = 0;
    residentFrom[tid] = cpu.now();
    lastCommitted[tid] = cpu.stats().committed[tid];
    // A reused context must not learn on the previous occupant's
    // stand-alone IPC: a sampled estimate is zeroed and a solo
    // re-bootstrap sample queued for the new job; an oracle estimate
    // is the caller's value for the context.
    singleIpcEst[tid] = oracleSolo[tid];
    roundPerf[tid] = 0.0;
    needsSolo[tid] = sampleSolo;
    // When the last job departed, redistributeDetached freed every
    // share into the void (no survivor to receive them) and the
    // anchor's total dropped to zero. admitAttached conserves the
    // total it is given, so without re-seeding the first arrival
    // after a drain would inherit — and once a second job lands,
    // install — an all-zero partition that starves every context.
    if (anchorPartition.total() == 0)
        anchorPartition.share[tid] = cpu.config().intRegs;
    anchorPartition =
        admitAttached(anchorPartition, activeMask, tid, minShare);
    // The epoch in flight ran over the old active set; its
    // measurement must not be credited.
    roundDirty = true;
    churned(cpu, tid, true);

    if (samplingThread >= 0 && samplingThread != static_cast<int>(tid)) {
        // A solo sample is in flight: the newcomer waits disabled
        // until it ends so the sample stays clean.
        cpu.setThreadEnabled(tid, false);
    } else {
        installAfterChurn(cpu);
    }
    if (EventTrace *evt = eventTraceRef.trace)
        evt->instant(cpu.now(), eventTraceRef.pid, kControlTid, category(),
                     "churn.attach", churnJson(tid));
}

void
EpochLearner::threadDetached(SmtCpu &cpu, ThreadId tid)
{
    int nt = cpu.numThreads();
    openSystemMode = true;
    if (activeMask[tid]) {
        Cycle from = std::max(residentFrom[tid], lastEpochStart);
        residentAccum[tid] += cpu.now() > from ? cpu.now() - from : 0;
    }
    activeMask[tid] = false;
    needsSolo[tid] = false;
    anchorPartition =
        redistributeDetached(anchorPartition, activeMask, minShare);
    roundDirty = true;
    churned(cpu, tid, false);

    if (samplingThread == static_cast<int>(tid)) {
        // The thread running solo departed mid-sample: abandon it.
        samplingThread = -1;
        if (bootstrapPending > 0) {
            // Closed-system bootstrap chain interrupted by churn;
            // fall back to per-context re-bootstrap for whichever
            // active threads still lack an estimate.
            bootstrapPending = 0;
            if (sampleSolo)
                for (int i = 0; i < nt; ++i)
                    if (activeMask[i] && singleIpcEst[i] <= 0.0)
                        needsSolo[i] = true;
        }
        for (int i = 0; i < nt; ++i)
            cpu.setThreadEnabled(static_cast<ThreadId>(i), activeMask[i]);
    }
    // Re-feasibility on detach: the freed shares are already
    // redistributed into the anchor; install it now rather than
    // letting the survivors run capped until the next boundary.
    if (samplingThread < 0)
        installAfterChurn(cpu);
    if (EventTrace *evt = eventTraceRef.trace)
        evt->instant(cpu.now(), eventTraceRef.pid, kControlTid, category(),
                     "churn.detach", churnJson(tid));
}

IpcSample
EpochLearner::measureEpoch(const SmtCpu &cpu)
{
    // The software-cost stall at the previous boundary froze the
    // machine for the first cycles of this epoch, and callers may
    // drive boundaries at a cadence other than the epoch size; both
    // would bias trial comparisons if IPC were computed over the
    // nominal epoch size, so divide by the cycles the measurement
    // window actually covered.
    IpcSample s;
    s.numThreads = cpu.numThreads();
    Cycle now = cpu.now();
    lastElapsed = now > lastEpochStart ? now - lastEpochStart : 1;
    const auto &committed = cpu.stats().committed;
    for (int i = 0; i < s.numThreads; ++i) {
        Cycle resident = lastElapsed;
        if (openSystemMode) {
            // Partial residency (the job attached or departed inside
            // this window) must not be charged as full residency: the
            // divisor is the cycles the context actually held a job.
            resident = residentAccum[i];
            if (activeMask[i]) {
                Cycle from = std::max(residentFrom[i], lastEpochStart);
                resident += now > from ? now - from : 0;
            }
            resident = std::min(resident, lastElapsed);
            if (resident == 0) {
                s.ipc[i] = 0.0;
                continue;
            }
        }
        s.ipc[i] = static_cast<double>(committed[i] - lastCommitted[i]) /
                   static_cast<double>(resident);
    }
    return s;
}

void
EpochLearner::beginSample(SmtCpu &cpu, int tid)
{
    samplingThread = tid;
    int nt = cpu.numThreads();
    for (int i = 0; i < nt; ++i)
        cpu.setThreadEnabled(static_cast<ThreadId>(i), i == tid);
    // The solo thread gets the whole machine during the sample.
    cpu.clearPartition();
    if (EventTrace *evt = eventTraceRef.trace) {
        Json args = Json::object();
        args.set("thread", tid);
        args.set("bootstrap", bootstrapPending > 0);
        evt->instant(cpu.now(), eventTraceRef.pid, kControlTid, category(),
                     "sample.begin", std::move(args));
    }
}

bool
EpochLearner::beginDueSample(SmtCpu &cpu, int na)
{
    // SingleIPC sampling (Section 4.2): every samplePeriod epochs,
    // run one thread solo for the next epoch. Churn-queued
    // re-bootstrap samples (needsSolo) take priority over the
    // periodic rotation.
    if (!sampleSolo || na <= 1)
        return false;
    int next = nextNeedsSolo();
    if (next < 0) {
        if (++epochsSinceSample < samplePeriod)
            return false;
        // The rotation's next active context, cyclically.
        int nt = cpu.numThreads();
        next = sampleRotation;
        for (int k = 0; k < nt && !activeMask[next]; ++k)
            next = (sampleRotation + k + 1) % nt;
        epochsSinceSample = 0;
        sampleRotation = (next + 1) % nt;
    }
    beginSample(cpu, next);
    return true;
}

void
EpochLearner::resume(SmtCpu &cpu, int na)
{
    int pending = na > 1 ? nextNeedsSolo() : -1;
    if (pending >= 0)
        beginSample(cpu, pending);
    else
        install(cpu);
}

void
EpochLearner::updateSingleIpc(const SmtCpu &cpu, int tid, double ipc)
{
    singleIpcEst[tid] = ipc;
    needsSolo[tid] = false;
    if (EventTrace *evt = eventTraceRef.trace) {
        Json args = Json::object();
        args.set("thread", tid);
        args.set("ipc", ipc);
        evt->instant(cpu.now(), eventTraceRef.pid, kControlTid, category(),
                     "single_ipc.update", std::move(args));
    }
}

void
EpochLearner::finishSample(SmtCpu &cpu, const IpcSample &sample, int na)
{
    // The epoch that just ended ran samplingThread solo; its IPC is
    // the thread's stand-alone IPC estimate. Resume normal
    // multithreaded execution without consuming a learning epoch.
    int nt = cpu.numThreads();
    updateSingleIpc(cpu, samplingThread, sample.ipc[samplingThread]);
    if (bootstrapPending > 0)
        --bootstrapPending;
    if (bootstrapPending > 0) {
        // Attach-time bootstrap: chain straight into the next
        // thread's solo epoch until every estimate is populated.
        int next = sampleRotation;
        sampleRotation = (sampleRotation + 1) % nt;
        beginSample(cpu, next);
        return;
    }
    samplingThread = -1;
    for (int i = 0; i < nt; ++i)
        cpu.setThreadEnabled(static_cast<ThreadId>(i),
                             !openSystemMode || activeMask[i]);
    // Churn may have queued more re-bootstrap samples; chain them
    // like the attach-time bootstrap.
    resume(cpu, na);
}

void
EpochLearner::chargeBoundary(SmtCpu &cpu)
{
    // Charge the software implementation cost (Section 4.2) and note
    // where the next measurement window really starts: commits resume
    // only once the stall drains.
    cpu.stallUntil(cpu.now() + softwareCost);
    lastCommitted = cpu.stats().committed;
    lastEpochStart = cpu.now() + softwareCost;
    if (openSystemMode) {
        residentAccum.fill(0);
        for (int i = 0; i < cpu.numThreads(); ++i)
            residentFrom[i] = lastEpochStart;
    }
}

void
EpochLearner::epoch(SmtCpu &cpu, std::uint64_t epoch_id)
{
    epochEnded(cpu);
    int na = numActive(cpu.numThreads());
    // Consume the churn flag: it covers the epoch that just ended.
    bool dirty = roundDirty;
    roundDirty = false;
    IpcSample sample = measureEpoch(cpu);
    // The partition the finished epoch actually ran under.
    Partition ran = cpu.partition();
    bool ran_partitioned = cpu.partitioningEnabled();

    if (EventTrace *evt = eventTraceRef.trace) {
        // The epoch that just finished, as one slice on the control
        // track covering the cycles the measurement actually saw.
        Json args = Json::object();
        args.set("epoch", epoch_id);
        args.set("kind", samplingThread >= 0 ? "sample" : "learn");
        args.set("ipc", ipcJson(sample));
        evt->complete(lastEpochStart,
                      static_cast<std::int64_t>(lastElapsed),
                      eventTraceRef.pid, kControlTid, "epoch", "epoch",
                      std::move(args));
    }

    double metric;
    int sampled = -1;
    EpochStep step;
    if (samplingThread >= 0) {
        sampled = samplingThread;
        metric = sample.ipc[sampled];
        finishSample(cpu, sample, na);
    } else {
        // The feedback metric over the active subset only; in a closed
        // system this is plain evalMetric, bit for bit.
        metric = openSystemMode ? evalMetricMasked(perfMetric, sample,
                                                   singleIpcEst, activeMask)
                                : evalMetric(perfMetric, sample,
                                             singleIpcEst);
        if (openSystemMode && na == 1) {
            // A full, churn-free solo stretch of a lone job doubles as
            // a free SingleIPC sample for it.
            int lone = activeAt(0);
            if (needsSolo[lone] && !dirty && !cpu.partitioningEnabled()) {
                updateSingleIpc(cpu, lone, sample.ipc[lone]);
                sampled = lone;
            }
        }
        step = learn(cpu, sample, metric, dirty);
    }

    if (epochTracerPtr) {
        EpochTraceRecord rec;
        rec.epochId = epoch_id;
        rec.cycle = cpu.now();
        rec.elapsedCycles = lastElapsed;
        rec.numThreads = sample.numThreads;
        for (int i = 0; i < sample.numThreads; ++i)
            rec.ipc[i] = sample.ipc[i];
        rec.metricValue = metric;
        rec.partitioned = ran_partitioned;
        // Only a partitioned epoch has a meaningful trial; recording
        // the stale partition of an unpartitioned (solo-sampling)
        // epoch made in-memory records differ from their JSON export,
        // which encodes the trial of such epochs as null.
        rec.trial = ran_partitioned ? ran : Partition{};
        rec.anchor = anchorPartition;
        rec.roundPerf = roundPerf;
        rec.singleIpcEst = singleIpcEst;
        rec.gradientThread = step.gradientThread;
        rec.samplingThread = sampled;
        rec.anchorMoved = step.anchorMoved;
        rec.softwareCost = softwareCost;
        epochTracerPtr->record(std::move(rec));
    }
    chargeBoundary(cpu);
}

} // namespace smthill
