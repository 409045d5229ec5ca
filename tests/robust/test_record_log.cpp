/**
 * @file
 * Tests of the shared record codec and RecordLog: the single-record
 * verifier rejects every malformed shape, a torn runner frame reads
 * as a dead child, checkpoint journals keep their documented byte
 * layout, and a version 1 cache file reopens rebuilt.
 */

#include <gtest/gtest.h>

#include <fcntl.h>
#include <sys/stat.h>
#include <unistd.h>

#include <cstdio>
#include <fstream>
#include <iterator>
#include <stdexcept>
#include <string>

#include "core/hash.h"
#include "robust/checkpoint.h"
#include "robust/record_log.h"
#include "robust/runner.h"
#include "service/cache.h"

using namespace tqan;
using namespace tqan::robust;

namespace {

std::string
tempPath(const std::string &name)
{
    return testing::TempDir() + "tqan_reclog_" + name + ".bin";
}

std::string
fileBytes(const std::string &path)
{
    std::ifstream in(path, std::ios::binary);
    return std::string(std::istreambuf_iterator<char>(in),
                       std::istreambuf_iterator<char>());
}

void
writeBytes(const std::string &path, const std::string &bytes)
{
    std::ofstream out(path, std::ios::binary | std::ios::trunc);
    out.write(bytes.data(),
              static_cast<std::streamsize>(bytes.size()));
}

/** Little-endian integer, written independently of the codec under
 * test so the layout checks below pin the format, not the code. */
std::string
le(std::uint64_t v, int bytes)
{
    std::string out;
    for (int i = 0; i < bytes; ++i)
        out += static_cast<char>((v >> (8 * i)) & 0xff);
    return out;
}

/** One record in the documented layout. */
std::string
handRecord(std::uint64_t key, const std::string &body)
{
    std::string id = le(key, 8);
    std::uint64_t sum = core::fnv1a64(
        body.data(), body.size(), core::fnv1a64(id.data(), 8));
    return id + le(body.size(), 4) + le(sum, 8) + body;
}

std::size_t
decodes(const std::string &buf)
{
    std::uint64_t key = 0;
    std::string_view body;
    return decodeRecord(buf, &key, &body);
}

const std::string kOddBody = std::string("line one\nline two\t\"q\"\\") +
                             std::string(1, '\0') + "\x80\xff";

} // namespace

TEST(RecordCodec, EncodeMatchesTheDocumentedLayout)
{
    EXPECT_EQ(encodeRecord(0x0123456789abcdefull, kOddBody),
              handRecord(0x0123456789abcdefull, kOddBody));
    EXPECT_EQ(encodeRecord(5, ""), handRecord(5, ""));
}

TEST(RecordCodec, DecodeRoundTripsAndReportsItsLength)
{
    std::string rec = encodeRecord(42, kOddBody);
    // Trailing bytes belong to the next record, not to this one.
    std::string buf = rec + "next";
    std::uint64_t key = 0;
    std::string_view body;
    ASSERT_EQ(decodeRecord(buf, &key, &body), rec.size());
    EXPECT_EQ(key, 42u);
    EXPECT_EQ(body, kOddBody);
}

TEST(RecordCodec, DecodeRejectsAShortHeader)
{
    std::string rec = encodeRecord(1, "");
    ASSERT_EQ(rec.size(), kRecordHead);
    for (std::size_t n = 0; n < kRecordHead; ++n)
        EXPECT_EQ(decodes(rec.substr(0, n)), 0u) << n;
}

TEST(RecordCodec, DecodeRejectsALengthAboveTheCap)
{
    std::string rec = le(1, 8) + le(kMaxRecordBody + 1ull, 4) +
                      le(0, 8) + "body";
    EXPECT_EQ(decodes(rec), 0u);
    EXPECT_THROW(encodeRecord(1, std::string(kMaxRecordBody + 1ull,
                                             'x')),
                 std::runtime_error);
}

TEST(RecordCodec, DecodeRejectsALengthRunningPastTheEnd)
{
    std::string rec = encodeRecord(1, kOddBody);
    for (std::size_t n = kRecordHead; n < rec.size(); ++n)
        EXPECT_EQ(decodes(rec.substr(0, n)), 0u) << n;
}

TEST(RecordCodec, DecodeRejectsAnyFlippedByte)
{
    // Key (0-7), length (8-11), checksum (12-19) and body bytes: a
    // flip anywhere must fail verification.
    std::string rec = encodeRecord(0xfeedull, kOddBody);
    for (std::size_t i = 0; i < rec.size(); ++i)
        for (unsigned char bit : {0x01, 0x80}) {
            std::string bad = rec;
            bad[i] = static_cast<char>(bad[i] ^ bit);
            EXPECT_EQ(decodes(bad), 0u) << "byte " << i;
        }
}

TEST(RecordCodec, ByteReaderThrowsInsteadOfOverrunning)
{
    std::string buf;
    putU32(buf, 7);
    putStr(buf, "abc");
    ByteReader rd(buf, "test payload");
    EXPECT_EQ(rd.u32(), 7u);
    EXPECT_EQ(rd.str(), "abc");
    EXPECT_EQ(rd.remaining(), 0u);
    EXPECT_THROW(rd.u64(), std::runtime_error);

    std::string lying;
    putU32(lying, 100); // claims 100 bytes, holds 2
    lying += "ab";
    ByteReader rd2(lying, "test payload");
    EXPECT_THROW(rd2.str(), std::runtime_error);
}

TEST(RecordLogFile, VisitorRejectionEndsTheLoadAndTruncates)
{
    std::string path = tempPath("reject");
    std::remove(path.c_str());
    const char magic[] = "TESTLOG1";
    auto accept = [](std::uint64_t, std::string_view) { return true; };
    {
        RecordLog log;
        log.open(path, magic, 1, {}, accept);
        log.append(1, "keep");
        log.append(2, "reject me");
        log.append(3, "after");
    }
    int seen = 0;
    RecordLog log;
    log.open(path, magic, 1, {},
             [&seen](std::uint64_t key, std::string_view) {
                 ++seen;
                 return key != 2;
             });
    EXPECT_EQ(seen, 2);
    EXPECT_EQ(log.loadInfo().loadedEntries, 1u);
    EXPECT_GT(log.loadInfo().droppedBytes, 0u);
    EXPECT_EQ(fileBytes(path).size(),
              16 + encodeRecord(1, "keep").size());
    std::remove(path.c_str());
}

TEST(RecordLogFile, UnopenablePathThrowsAndLeavesTheLogClosed)
{
    std::string path = testing::TempDir() + "no_such_dir/x.bin";
    RecordLog log;
    EXPECT_THROW(log.open(path, "TESTLOG1", 1, {},
                          [](std::uint64_t, std::string_view) {
                              return true;
                          }),
                 std::runtime_error);
    EXPECT_FALSE(log.isOpen());
    // The views: the checkpoint refuses, the cache degrades.
    EXPECT_THROW(Checkpoint{path}, std::runtime_error);
    service::CompileCache cache(path);
    cache.insert(core::fnv1a64("req"), "req", "pay");
    std::string pay;
    EXPECT_TRUE(cache.lookup(core::fnv1a64("req"), "req", &pay));
    EXPECT_EQ(pay, "pay");
}

TEST(RecordLogFile, CheckpointJournalKeepsTheDocumentedBytes)
{
    std::string path = tempPath("ckpt_layout");
    std::remove(path.c_str());
    {
        Checkpoint c(path);
        c.append(Checkpoint::kMetaShard, "sweep-v1 tag");
        c.append(0, "zero");
        c.append(7, kOddBody);
        c.append(0, "zero again");
    }
    std::string want = std::string("TQANCKv1", 8) + le(1, 4) +
                       le(0, 4) +
                       handRecord(~0ull, "sweep-v1 tag") +
                       handRecord(0, "zero") + handRecord(7, kOddBody) +
                       handRecord(0, "zero again");
    EXPECT_EQ(fileBytes(path), want);

    // And a hand-written journal loads, later record winning.
    writeBytes(path, want);
    Checkpoint again(path);
    EXPECT_EQ(again.loadInfo().loadedEntries, 4u);
    EXPECT_EQ(again.loadInfo().droppedBytes, 0u);
    ASSERT_EQ(again.entries().size(), 3u);
    EXPECT_EQ(again.entries().at(0), "zero again");
    EXPECT_EQ(again.entries().at(7), kOddBody);
    std::remove(path.c_str());
}

TEST(RecordLogFile, VersionOneCacheFileReopensRebuiltEmptyAndWritable)
{
    // The version 1 layout: "TQANCSv1", u32 1, u32 0, then entries
    // u64 key | u32 reqLen | u32 payLen | u64 fnv1a64(req || pay) |
    // req | pay.
    std::string req = "req-1", pay = "pay-1";
    std::string v1 = std::string("TQANCSv1", 8) + le(1, 4) + le(0, 4) +
                     le(core::fnv1a64(req), 8) + le(req.size(), 4) +
                     le(pay.size(), 4) +
                     le(core::fnv1a64(pay.data(), pay.size(),
                                      core::fnv1a64(req)),
                        8) +
                     req + pay;
    std::string path = tempPath("cache_v1");
    writeBytes(path, v1);
    {
        service::CompileCache c(path);
        EXPECT_TRUE(c.loadInfo().rebuilt);
        EXPECT_EQ(c.size(), 0u);
        std::string got;
        EXPECT_FALSE(c.lookup(core::fnv1a64(req), req, &got));
        c.insert(core::fnv1a64(req), req, pay);
    }
    service::CompileCache again(path);
    EXPECT_FALSE(again.loadInfo().rebuilt);
    EXPECT_EQ(again.loadInfo().loadedEntries, 1u);
    std::string got;
    ASSERT_TRUE(again.lookup(core::fnv1a64(req), req, &got));
    EXPECT_EQ(got, pay);
    std::remove(path.c_str());
}

TEST(RecordLogFile, CacheEntryBodyIsRequestLengthRequestPayload)
{
    std::string path = tempPath("cache_layout");
    std::remove(path.c_str());
    {
        service::CompileCache c(path);
        c.insert(core::fnv1a64("req"), "req", "payload");
    }
    std::string body = le(3, 4) + "req" + "payload";
    EXPECT_EQ(fileBytes(path),
              std::string("TQANCSv2", 8) + le(2, 4) + le(0, 4) +
                  handRecord(core::fnv1a64("req"), body));
    std::remove(path.c_str());
}

TEST(RunnerFrame, EveryTornPrefixOfAFrameIsRejected)
{
    std::string frame = encodeRecord(0, "shard payload");
    for (std::size_t n = 0; n < frame.size(); ++n)
        EXPECT_EQ(decodes(frame.substr(0, n)), 0u) << n;
}

TEST(RunnerFrame, TornFrameFromAChildReadsAsADeadChild)
{
    // The child writes half of a valid frame to its result pipe and
    // exits 0: the parent must count a dead worker, never accept the
    // bytes as a payload.
    CampaignOptions co;
    co.processes = 1;
    co.retries = 0;
    ShardFn torn = [](std::uint64_t, int) -> std::string {
        std::string frame = encodeRecord(0, "half a payload");
        for (int fd = 3; fd < 256; ++fd) {
            struct stat st;
            int fl = ::fcntl(fd, F_GETFL);
            if (fl < 0 || (fl & O_ACCMODE) != O_WRONLY ||
                ::fstat(fd, &st) != 0 || !S_ISFIFO(st.st_mode))
                continue;
            ssize_t ignored = ::write(fd, frame.data(), frame.size() / 2);
            (void)ignored;
        }
        _exit(0);
    };
    CampaignResult r = runCampaign(1, torn, co);
    EXPECT_EQ(r.quarantined, 1u);
    EXPECT_EQ(r.shards[0].state, ShardState::Quarantined);
    EXPECT_EQ(r.shards[0].error, "worker died (exit 0)");
    EXPECT_TRUE(r.payloads[0].empty());
}
