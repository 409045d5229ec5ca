/**
 * @file
 * Content-addressed compile cache with an append-only on-disk store.
 *
 * The CompileService keys each compile result by the FNV-1a hash of
 * its canonicalized request (service.h); this class holds the
 * key -> (request, payload) map and, when given a path, persists it
 * across restarts.  The store is a robust::RecordLog
 * (robust/record_log.h holds the format, the verified load and the
 * durability contract) with magic "TQANCSv2", version 2, one record
 * per entry: key = the content key, body = u32 reqLen | request |
 * payload.  A later entry for the same key wins on load.  A store
 * written in the version 1 layout reopens rebuilt: the cache starts
 * cold once and recompiles identical payloads.
 *
 * On top of the log's checks, the load drops (and truncates from) the
 * first entry whose key is not the hash of its request.  Collisions
 * cannot be served either: lookup compares the stored request bytes,
 * not just the key.  When the store cannot be opened or written, the
 * cache keeps serving from memory: a failed append keeps that entry
 * in memory only (its torn tail is dropped on the next open).
 *
 * Fault probes: cache.open (transient load failure, retried),
 * cache.append (fail = torn half-written entry), cache.lookup
 * (fail = forced miss; the entry recompiles and re-inserts
 * identically).
 *
 * Thread-safe: one mutex guards the map and the log.
 */

#ifndef TQAN_SERVICE_CACHE_H
#define TQAN_SERVICE_CACHE_H

#include <cstdint>
#include <mutex>
#include <string>
#include <unordered_map>

#include "robust/record_log.h"

namespace tqan {
namespace service {

class CompileCache
{
  public:
    /** Load tallies of the most recent open (for --stats and the
     * corruption tests). */
    using LoadInfo = robust::RecordLog::LoadInfo;

    /** Empty path = in-memory only.  Opening loads the verified
     * prefix of an existing store, truncates any corrupt tail, and
     * leaves the file ready for appends. */
    explicit CompileCache(std::string path = "");

    /** Payload for `key`, but only if the stored request bytes equal
     * `request` (content addressing, not trust-the-hash). */
    bool lookup(std::uint64_t key, const std::string &request,
                std::string *payload);

    /** Record a result; appends to the store when one is attached.
     * Re-inserting an identical entry is a no-op (no duplicate
     * appends after a reload). */
    void insert(std::uint64_t key, const std::string &request,
                const std::string &payload);

    std::size_t size() const;
    const std::string &path() const { return path_; }
    const LoadInfo &loadInfo() const { return log_.loadInfo(); }

  private:
    struct Entry
    {
        std::string request;
        std::string payload;
    };

    mutable std::mutex mu_;
    std::string path_;
    std::unordered_map<std::uint64_t, Entry> map_;
    robust::RecordLog log_; ///< closed = in-memory only
};

} // namespace service
} // namespace tqan

#endif // TQAN_SERVICE_CACHE_H
