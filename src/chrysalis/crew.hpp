// Crew: the one start-and-join lifecycle of the runtimes that start
// processes and wait for them (SMP, NET, Lynx, Ant Farm, Crowd Control).
//
// A member ends when its body returns, when its body throws a Chrysalis
// throw or a machine fault (faulted()), or when it is lost: its node was
// dead or cut off at start, or its node's crash was broadcast while it ran
// (lost()).  However it ends, it gets exactly one on_end call and posts one
// token on the crew's dual queue: charged from the member, uncharged when
// lost.  The crew hears of a death only through create_process's throw
// codes and the crash tier, so a silent kill that no detector broadcasts
// leaves join() waiting.
#pragma once

#include <cstdint>
#include <functional>
#include <string>
#include <vector>

#include "chrysalis/kernel.hpp"

namespace bfly::chrys {

class Crew {
 public:
  /// Makes the done queue (charged) and registers the crash observer.
  /// on_end(i) runs host-side and uncharged, just before i's token.
  explicit Crew(Kernel& k, std::function<void(std::uint32_t)> on_end = {});
  ~Crew();
  Crew(const Crew&) = delete;
  Crew& operator=(const Crew&) = delete;

  /// Start member size() on `node`; members may call it too.  False when
  /// the node is dead or cut off: the member is lost from the start.  Any
  /// other throw propagates and starts no member.
  bool start(sim::NodeId node, std::function<void()> body, std::string name);
  /// Take one token per member started so far, re-reading that count.
  void join();

  std::uint32_t size() const { return size_; }
  std::uint32_t lost() const { return lost_; }
  std::uint32_t faulted() const { return faulted_; }

 private:
  // kPosting: the body has ended and only the token is owed.
  enum class State : std::uint8_t { kDone, kRunning, kPosting };
  struct Member { sim::NodeId node; State state; };
  void run(std::uint32_t i, const std::function<void()>& body);
  /// Post i's token uncharged; a member still running is counted lost.
  void post_for(std::uint32_t i);

  Kernel& k_;
  std::function<void(std::uint32_t)> on_end_;
  Oid done_;
  std::uint64_t crash_observer_;
  std::vector<Member> members_;  // by start order
  std::uint32_t size_ = 0, lost_ = 0, faulted_ = 0;
};

}  // namespace bfly::chrys
