#include "robust/checkpoint.h"

#include "core/profile.h"

namespace tqan {
namespace robust {

Checkpoint::Checkpoint(std::string path) : path_(std::move(path))
{
    if (path_.empty())
        return;
    log_.open(path_, "TQANCKv1", 1,
              {"ckpt.read", "ckpt.append", "ckpt.fsync"},
              [this](std::uint64_t shard, std::string_view payload) {
                  map_[shard] = std::string(payload);
                  return true;
              });
}

void
Checkpoint::append(std::uint64_t shard, const std::string &payload)
{
    if (!enabled())
        return;
    log_.append(shard, payload);
    // Durable now: only from here on is the shard acknowledged
    // (reported Done, counted by --resume).
    core::profile::count("robust.ckpt.append");
    map_[shard] = payload;
}

void
Checkpoint::reset()
{
    log_.reset();
    map_.clear();
}

} // namespace robust
} // namespace tqan
