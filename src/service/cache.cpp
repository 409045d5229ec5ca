#include "service/cache.h"

#include <cstdio>
#include <stdexcept>

#include "core/hash.h"
#include "robust/fault.h"

namespace tqan {
namespace service {

CompileCache::CompileCache(std::string path) : path_(std::move(path))
{
    if (path_.empty())
        return;
    try {
        log_.open(path_, "TQANCSv2", 2,
                  {"cache.open", "cache.append", nullptr},
                  [this](std::uint64_t key, std::string_view body) {
                      if (body.size() < 4)
                          return false;
                      robust::ByteReader rd(body, "cache entry");
                      std::uint32_t reqLen = rd.u32();
                      if (reqLen > rd.remaining())
                          return false;
                      std::string_view req = rd.bytes(reqLen);
                      if (core::fnv1a64(req.data(), req.size()) != key)
                          return false; // key is not the content address
                      map_[key] = Entry{std::string(req),
                                        std::string(rd.bytes(
                                            rd.remaining()))};
                      return true;
                  });
    } catch (const std::exception &e) {
        // Degrade to in-memory-only rather than refuse to serve.
        std::fprintf(stderr,
                     "tqan: cache store %s unavailable (%s); running "
                     "in-memory only\n",
                     path_.c_str(), e.what());
    }
}

bool
CompileCache::lookup(std::uint64_t key, const std::string &request,
                     std::string *payload)
{
    // Injected miss: the caller recompiles and re-inserts; the tests
    // pin that the recomputed payload is identical.
    if (robust::faultPoint("cache.lookup"))
        return false;
    std::lock_guard<std::mutex> lock(mu_);
    auto it = map_.find(key);
    if (it == map_.end() || it->second.request != request)
        return false;
    *payload = it->second.payload;
    return true;
}

void
CompileCache::insert(std::uint64_t key, const std::string &request,
                     const std::string &payload)
{
    std::lock_guard<std::mutex> lock(mu_);
    auto it = map_.find(key);
    if (it != map_.end() && it->second.request == request &&
        it->second.payload == payload)
        return;
    if (log_.isOpen()) {
        std::string body;
        robust::putStr(body, request);
        body += payload;
        try {
            log_.append(key, body);
        } catch (const std::exception &ex) {
            // The entry stays served from memory; the torn tail is
            // dropped by the next open's verified-prefix load.
            std::fprintf(stderr,
                         "tqan: cache append failed (%s); entry "
                         "kept in memory only\n",
                         ex.what());
        }
    }
    map_[key] = Entry{request, payload};
}

std::size_t
CompileCache::size() const
{
    std::lock_guard<std::mutex> lock(mu_);
    return map_.size();
}

} // namespace service
} // namespace tqan
