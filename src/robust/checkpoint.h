/**
 * @file
 * Append-only campaign checkpoint journal.
 *
 * A CampaignRunner journals every completed shard here so an
 * interrupted campaign can resume without recomputing (and, because
 * shard payloads are deterministic, without changing a single output
 * byte).  The journal is a robust::RecordLog (robust/record_log.h
 * holds the format, the verified load and the durability contract)
 * with magic "TQANCKv1", version 1, one record per shard: key = the
 * shard id, body = its payload.  A later record for the same shard
 * wins on load.
 *
 * Shard id kMetaShard is reserved for the campaign tag: a digest of
 * the campaign's configuration that the runner checks on resume, so
 * a journal from a different campaign is rejected instead of quietly
 * mixing results.
 *
 * Fault probes: ckpt.read (transient load failure, retried),
 * ckpt.append (fail = torn half-written entry; exit = crash before
 * the entry is written), ckpt.fsync.
 */

#ifndef TQAN_ROBUST_CHECKPOINT_H
#define TQAN_ROBUST_CHECKPOINT_H

#include <cstdint>
#include <map>
#include <string>

#include "robust/record_log.h"

namespace tqan {
namespace robust {

class Checkpoint
{
  public:
    using LoadInfo = RecordLog::LoadInfo;

    /** Disabled journal: enabled() is false, append() is a no-op. */
    Checkpoint() = default;

    /** Open (or create) the journal at `path`; "" = disabled.  Loads
     * the verified prefix, truncates any corrupt tail, and leaves
     * the file ready for appends.
     * @throws std::runtime_error when the journal cannot be opened. */
    explicit Checkpoint(std::string path);

    bool enabled() const { return log_.isOpen(); }
    const std::string &path() const { return path_; }
    const LoadInfo &loadInfo() const { return log_.loadInfo(); }

    /** Verified entries loaded on open (shard -> payload). */
    const std::map<std::uint64_t, std::string> &entries() const
    {
        return map_;
    }

    /** Journal one shard: write the entry, fsync, then remember it.
     * Returns only after the entry is durable.  No-op when
     * disabled. */
    void append(std::uint64_t shard, const std::string &payload);

    /** Truncate back to a bare header, dropping every entry (a
     * fresh, non-resumed campaign must not inherit stale shards). */
    void reset();

    /** Reserved shard id carrying the campaign tag. */
    static constexpr std::uint64_t kMetaShard = ~0ull;

  private:
    std::string path_;
    std::map<std::uint64_t, std::string> map_;
    RecordLog log_;
};

} // namespace robust
} // namespace tqan

#endif // TQAN_ROBUST_CHECKPOINT_H
