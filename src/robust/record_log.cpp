#include "robust/record_log.h"

#include <fcntl.h>
#include <unistd.h>

#include <cerrno>
#include <cstring>
#include <stdexcept>

#include "core/hash.h"
#include "robust/fault.h"
#include "robust/io.h"

namespace tqan {
namespace robust {

namespace {

constexpr std::size_t kHeaderSize = 8 + 4 + 4;

template <typename T>
void
putLE(std::string &buf, T v)
{
    for (std::size_t i = 0; i < sizeof(T); ++i)
        buf += static_cast<char>((v >> (8 * i)) & 0xff);
}

template <typename T>
T
loadLE(const char *p)
{
    T v = 0;
    for (std::size_t i = sizeof(T); i-- > 0;)
        v = static_cast<T>((v << 8) |
                           static_cast<unsigned char>(p[i]));
    return v;
}

std::uint64_t
recordSum(std::uint64_t key, std::string_view body)
{
    std::string id;
    putLE(id, key);
    return core::fnv1a64(body.data(), body.size(),
                         core::fnv1a64(id.data(), id.size()));
}

[[noreturn]] void
failErrno(const std::string &what, const std::string &path)
{
    throw std::runtime_error(what + " " + path + ": " +
                             std::strerror(errno));
}

} // namespace

void
putU32(std::string &buf, std::uint32_t v)
{
    putLE(buf, v);
}

void
putU64(std::string &buf, std::uint64_t v)
{
    putLE(buf, v);
}

void
putStr(std::string &buf, std::string_view s)
{
    putU32(buf, static_cast<std::uint32_t>(s.size()));
    buf.append(s.data(), s.size());
}

std::string_view
ByteReader::bytes(std::size_t n)
{
    if (n > remaining())
        throw std::runtime_error(std::string(what_) + " truncated");
    std::string_view v = buf_.substr(at_, n);
    at_ += n;
    return v;
}

std::uint32_t
ByteReader::u32()
{
    return loadLE<std::uint32_t>(bytes(4).data());
}

std::uint64_t
ByteReader::u64()
{
    return loadLE<std::uint64_t>(bytes(8).data());
}

std::string
ByteReader::str()
{
    return std::string(bytes(u32()));
}

std::string
encodeRecord(std::uint64_t key, std::string_view body)
{
    if (body.size() > kMaxRecordBody)
        throw std::runtime_error("record body of " +
                                 std::to_string(body.size()) +
                                 " bytes exceeds the cap");
    std::string buf;
    buf.reserve(kRecordHead + body.size());
    putU64(buf, key);
    putU32(buf, static_cast<std::uint32_t>(body.size()));
    putU64(buf, recordSum(key, body));
    buf.append(body.data(), body.size());
    return buf;
}

std::size_t
decodeRecord(std::string_view buf, std::uint64_t *key,
             std::string_view *body)
{
    if (buf.size() < kRecordHead)
        return 0;
    std::uint32_t len = loadLE<std::uint32_t>(buf.data() + 8);
    if (len > kMaxRecordBody || len > buf.size() - kRecordHead)
        return 0;
    std::uint64_t k = loadLE<std::uint64_t>(buf.data());
    std::string_view b = buf.substr(kRecordHead, len);
    if (recordSum(k, b) != loadLE<std::uint64_t>(buf.data() + 12))
        return 0;
    *key = k;
    *body = b;
    return kRecordHead + len;
}

RecordLog::~RecordLog()
{
    if (fd_ >= 0)
        ::close(fd_);
}

void
RecordLog::open(const std::string &path, const char *magic,
                std::uint32_t version, Sites sites,
                const Visitor &visit)
{
    if (fd_ >= 0) {
        ::close(fd_);
        fd_ = -1;
    }
    path_ = path;
    sites_ = sites;
    load_ = LoadInfo{};
    header_.assign(magic, 8);
    putU32(header_, version);
    putU32(header_, 0);

    std::string data;
    readFileRetry(path_, &data, sites_.read, &load_.retries);

    std::size_t good = 0; // verified prefix length
    if (data.compare(0, kHeaderSize, header_) == 0) {
        good = kHeaderSize;
        std::string_view rest(data);
        std::uint64_t key = 0;
        std::string_view body;
        while (std::size_t n =
                   decodeRecord(rest.substr(good), &key, &body)) {
            if (!visit(key, body))
                break;
            good += n;
            ++load_.loadedEntries;
        }
        load_.droppedBytes = data.size() - good;
    } else if (!data.empty()) {
        load_.rebuilt = true; // foreign or torn header: start over
    }

    int fd =
        ::open(path_.c_str(), O_WRONLY | O_CREAT | O_APPEND, 0644);
    if (fd < 0)
        failErrno("cannot open", path_);
    try {
        if (good == 0)
            writeHeader(fd); // fresh or rebuilt file
        else if (good < data.size() &&
                 ::ftruncate(fd, static_cast<off_t>(good)) != 0)
            failErrno("cannot truncate", path_);
    } catch (...) {
        ::close(fd);
        throw;
    }
    fd_ = fd;
}

void
RecordLog::append(std::uint64_t key, std::string_view body)
{
    if (fd_ < 0)
        throw std::runtime_error("append to a closed record log");
    std::string rec = encodeRecord(key, body);

    if (sites_.append && faultPoint(sites_.append)) {
        // Injected torn write: leave half the record on disk, exactly
        // what a crash mid-append produces.  The next open must drop
        // it.
        writeAll(fd_, rec.data(), rec.size() / 2);
        throw std::runtime_error(std::string("injected fault: ") +
                                 sites_.append + " (torn write)");
    }
    writeAll(fd_, rec.data(), rec.size());

    if (sites_.fsync && faultPoint(sites_.fsync))
        throw std::runtime_error(std::string("injected fault: ") +
                                 sites_.fsync);
    // The durability handshake: the record counts only after fsync.
    fsyncRetry(fd_);
}

void
RecordLog::reset()
{
    if (fd_ < 0)
        return;
    writeHeader(fd_);
    load_ = LoadInfo{};
}

/** Truncate to a bare header, durable before any append can land
 * behind it. */
void
RecordLog::writeHeader(int fd)
{
    if (::ftruncate(fd, 0) != 0)
        failErrno("cannot truncate", path_);
    writeAll(fd, header_.data(), header_.size());
    fsyncRetry(fd);
}

} // namespace robust
} // namespace tqan
