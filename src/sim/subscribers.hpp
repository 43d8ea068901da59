// An id-keyed callback list: the machine's death and crash observers.
#pragma once

#include <cstdint>
#include <functional>
#include <utility>
#include <vector>

namespace bfly::sim {

template <typename... Args>
class Subscribers {
 public:
  /// Append `fn`; returns its handle for remove().  Handles start at 1, so
  /// holders may keep 0 for "not subscribed".
  std::uint64_t add(std::function<void(Args...)> fn) {
    subs_.push_back(Sub{next_id_, std::move(fn)});
    return next_id_++;
  }

  /// Drop the callback with handle `id` (no-op if it is gone).  Never from
  /// inside fire().
  void remove(std::uint64_t id) {
    std::erase_if(subs_, [id](const Sub& s) { return s.id == id; });
  }

  /// Call every callback in the order added.  Iterates by index, so a
  /// callback may add subscribers (they run in this same pass) but must not
  /// remove any.
  void fire(Args... args) const {
    for (std::size_t i = 0; i < subs_.size(); ++i) {
      // Called through a copy: an add() from inside may move subs_.
      const std::function<void(Args...)> fn = subs_[i].fn;
      fn(args...);
    }
  }

 private:
  struct Sub {
    std::uint64_t id;
    std::function<void(Args...)> fn;
  };
  std::vector<Sub> subs_;
  std::uint64_t next_id_ = 1;
};

}  // namespace bfly::sim
