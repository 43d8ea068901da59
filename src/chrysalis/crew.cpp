#include "chrysalis/crew.hpp"

namespace bfly::chrys {

Crew::Crew(Kernel& k, std::function<void(std::uint32_t)> on_end)
    : k_(k),
      on_end_(std::move(on_end)),
      done_(k.make_dual_queue()),
      crash_observer_(k.machine().on_node_crash([this](sim::NodeId n) {
        for (std::uint32_t i = 0; i < members_.size(); ++i)
          if (members_[i].node == n && members_[i].state != State::kDone)
            post_for(i);
      })) {}

Crew::~Crew() {
  k_.machine().remove_crash_observer(crash_observer_);
  k_.delete_object(done_);
}

bool Crew::start(sim::NodeId node, std::function<void()> body,
                 std::string name) {
  // The slot is taken before create_process yields, so members starting
  // members get distinct indices; it owes nothing until the process exists.
  const auto i = static_cast<std::uint32_t>(members_.size());
  members_.push_back({node, State::kDone});
  bool started = true;
  try {
    k_.create_process(
        node, [this, i, body = std::move(body)] { run(i, body); },
        std::move(name));
  } catch (const ThrowSignal& t) {
    if (t.code != kThrowNodeDead && t.code != kThrowNetUnreachable) throw;
    started = false;
  }
  ++size_;
  members_[i].state = State::kRunning;
  if (!started) post_for(i);
  return started;
}

void Crew::run(std::uint32_t i, const std::function<void()>& body) {
  try {
    body();
  } catch (const ThrowSignal&) {
    ++faulted_;
  } catch (const sim::NodeDeadError&) {
    ++faulted_;
  } catch (const sim::NetUnreachableError&) {
    ++faulted_;
  } catch (const sim::MemoryFaultError&) {
    ++faulted_;
  }
  // A kill inside the charged post makes the crash broadcast post instead.
  members_[i].state = State::kPosting;
  if (on_end_) on_end_(i);
  k_.dq_enqueue(done_, i);
  members_[i].state = State::kDone;
}

void Crew::post_for(std::uint32_t i) {
  if (members_[i].state == State::kRunning) {
    ++lost_;
    if (on_end_) on_end_(i);
  }
  members_[i].state = State::kDone;
  k_.dq_enqueue_uncharged(done_, i);
}

void Crew::join() {
  for (std::uint32_t i = 0; i < size_; ++i) (void)k_.dq_dequeue(done_);
}

}  // namespace bfly::chrys
