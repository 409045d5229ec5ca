/**
 * @file
 * The one checksummed record format: little-endian byte helpers, a
 * single-record codec, and an append-only, crash-safe log of records.
 * The compile cache, the campaign checkpoint and the campaign
 * runner's child-result pipe frames all use it; nothing else frames
 * or verifies records.  All integers are little-endian.
 *
 *   record  u64 key | u32 len | u64 fnv1a64(key LE || body) | body
 *   file    8 B magic | u32 version | u32 reserved (0) | records
 *
 * The checksum binds the body to its key, so a record can never be
 * re-attributed by flipping the key field.  A RecordLog follows the
 * c-blosc2 super-chunk discipline.  The file is UNTRUSTED on open: a
 * missing file is created, a foreign magic/version or torn header
 * rebuilds it empty, and otherwise verified records go to the view's
 * visitor in file order.  The first record that fails to decode, or
 * that the visitor rejects, ends the load, and the file is truncated
 * back to the verified prefix, so a torn append from a crash is never
 * seen again.  append() writes the whole record and fsyncs before it
 * returns: once it returns, the record survives SIGKILL.  Every open
 * or write failure throws std::runtime_error; the view decides
 * whether that is fatal (Checkpoint) or degrades (CompileCache).
 */

#ifndef TQAN_ROBUST_RECORD_LOG_H
#define TQAN_ROBUST_RECORD_LOG_H

#include <cstddef>
#include <cstdint>
#include <functional>
#include <string>
#include <string_view>

namespace tqan {
namespace robust {

/** @name Little-endian writers (append to `buf`). @{ */
void putU32(std::string &buf, std::uint32_t v);
void putU64(std::string &buf, std::uint64_t v);
/** u32 length, then the bytes. */
void putStr(std::string &buf, std::string_view s);
/** @} */

/** Bounds-checked reader over a buffer the caller keeps alive: a read
 * past the end throws std::runtime_error naming `what`. */
class ByteReader
{
  public:
    ByteReader(std::string_view buf, const char *what)
        : buf_(buf), what_(what)
    {
    }

    std::uint32_t u32();
    std::uint64_t u64();
    /** The putStr() inverse. */
    std::string str();
    /** The next `n` raw bytes. */
    std::string_view bytes(std::size_t n);

    std::size_t remaining() const { return buf_.size() - at_; }

  private:
    std::string_view buf_;
    const char *what_;
    std::size_t at_ = 0;
};

/** Fixed part of one record: key, length, checksum. */
constexpr std::size_t kRecordHead = 8 + 4 + 8;
/** Cap on one record body: a corrupt length field must not drive a
 * giant allocation, so no longer body is ever written or read. */
constexpr std::uint32_t kMaxRecordBody = 1u << 28;

/** One record in the layout above.
 * @throws std::runtime_error when body exceeds kMaxRecordBody. */
std::string encodeRecord(std::uint64_t key, std::string_view body);

/**
 * Verify and decode the record at the start of `buf`.  Returns the
 * bytes it spans, or 0 when the buffer holds no valid record there:
 * a short header, a length above kMaxRecordBody or past the end of
 * the buffer, or a checksum that does not match.  On success `*body`
 * views into `buf`.
 */
std::size_t decodeRecord(std::string_view buf, std::uint64_t *key,
                         std::string_view *body);

class RecordLog
{
  public:
    /** Tallies of the most recent open. */
    struct LoadInfo
    {
        /** Records the visitor accepted. */
        std::uint64_t loadedEntries = 0;
        /** Bytes dropped from an unverifiable tail (0 on a clean
         * open; the header of a rebuilt file does not count). */
        std::uint64_t droppedBytes = 0;
        /** True when the header was foreign or torn and the file was
         * rebuilt empty. */
        bool rebuilt = false;
        /** Transient-read retries the load performed. */
        std::uint64_t retries = 0;
    };

    /** Fault-probe site names of the owning view (robust/fault.h);
     * nullptr = no probe.  `append` fail = half the record reaches
     * the disk and append throws (a crash mid-write); `fsync` fail =
     * the record is written but append throws before the fsync. */
    struct Sites
    {
        const char *read = nullptr;
        const char *append = nullptr;
        const char *fsync = nullptr;
    };

    /** Sees each verified record in file order; returning false
     * rejects it and ends the load there, like a checksum failure. */
    using Visitor =
        std::function<bool(std::uint64_t key, std::string_view body)>;

    RecordLog() = default; ///< closed
    ~RecordLog();
    RecordLog(const RecordLog &) = delete;
    RecordLog &operator=(const RecordLog &) = delete;

    /** Load the file at `path` through `visit` (see the file comment)
     * and leave it open for appends.  `magic` is 8 bytes.
     * @throws std::runtime_error when the file cannot be read,
     *         repaired or opened; the log is then closed. */
    void open(const std::string &path, const char *magic,
              std::uint32_t version, Sites sites,
              const Visitor &visit);

    bool isOpen() const { return fd_ >= 0; }
    const LoadInfo &loadInfo() const { return load_; }

    /** Append one record; returns only after it is durable. */
    void append(std::uint64_t key, std::string_view body);

    /** Truncate back to a bare header, dropping every record. */
    void reset();

  private:
    void writeHeader(int fd);

    std::string path_;
    std::string header_;
    Sites sites_;
    int fd_ = -1;
    LoadInfo load_;
};

} // namespace robust
} // namespace tqan

#endif // TQAN_ROBUST_RECORD_LOG_H
