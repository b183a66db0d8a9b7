/**
 * @file
 * The artifact writers of smthill_cli and the paper benches: plain
 * text files, the event trace in the form its file extension picks,
 * JSON exports with a reload check, the host-profile report, and the
 * streaming stat-snapshot sink. Apart from the profile report, the
 * writers print nothing; each caller reports what it wrote in its
 * own stdout lines. Every writer is fatal on I/O failure.
 */

#ifndef SMTHILL_HARNESS_ARTIFACTS_HH
#define SMTHILL_HARNESS_ARTIFACTS_HH

#include <cstddef>
#include <cstdint>
#include <fstream>
#include <optional>
#include <string>

#include "common/event_trace.hh"
#include "common/json.hh"
#include "common/profile.hh"
#include "common/stat_snapshot.hh"

namespace smthill
{

/** @return true if @p path ends in @p ext (".jsonl", ".csv"). */
bool hasExtension(const std::string &path, const std::string &ext);

/** Write @p content to @p path. */
void writeTextFile(const std::string &path, const std::string &content);

/**
 * Write @p trace to @p path: a ".jsonl" extension selects the JSONL
 * stream form, anything else the Chrome trace-event / Perfetto JSON
 * document. With profiling on, the collected host spans are injected
 * first as the pid-2000 host-span track.
 * @return true when the JSONL form was written
 */
bool writeEventTrace(EventTrace &trace, const std::string &path);

/**
 * Write @p doc to @p path, read the file back, and reparse it. The
 * caller re-derives its values from the returned document and checks
 * them against what it printed, so the export is proven a faithful
 * substitute for scraping stdout.
 */
Json writeAndReloadJson(const std::string &path, const Json &doc);

/**
 * Emit the host-profile report when profiling is on: to @p path as a
 * `smthill.profile.v1` document that must reload through
 * profileFromJson, or, with an empty @p path, as a stdout table of
 * every span, heaviest total first. Prints nothing at all with
 * profiling off.
 */
void exportProfile(const std::string &path);

/**
 * Streaming snapshot sink over globalStats(): opens @p path and
 * emits one `smthill.snapshots.v1` row per sample(). An empty path
 * makes every operation a no-op. sample() is thread-safe, so grid
 * cells can report completion from pool workers.
 */
class SnapshotSink
{
  public:
    explicit SnapshotSink(const std::string &path);
    ~SnapshotSink();

    SnapshotSink(const SnapshotSink &) = delete;
    SnapshotSink &operator=(const SnapshotSink &) = delete;

    /** @return true unless the sink was built with an empty path. */
    bool enabled() const { return snap.has_value(); }

    void sample(std::uint64_t epoch, std::uint64_t cycle);

    /**
     * Detach the stream and check the file.
     * @return rows written (0 for a disabled sink)
     */
    std::size_t close();

  private:
    std::ofstream out;
    std::optional<StatSnapshotter> snap;
    std::string file;
};

} // namespace smthill

#endif // SMTHILL_HARNESS_ARTIFACTS_HH
