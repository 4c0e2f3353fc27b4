// Strongly-typed identifiers shared across the library.
#pragma once

#include <cstdint>
#include <functional>
#include <stdexcept>
#include <string>
#include <vector>

namespace g2g {

/// Identifies a node (device / person) in the network.
class NodeId {
 public:
  constexpr NodeId() = default;
  constexpr explicit NodeId(std::uint32_t v) : v_(v) {}

  [[nodiscard]] constexpr std::uint32_t value() const { return v_; }
  [[nodiscard]] static constexpr NodeId invalid() { return NodeId(0xffffffffu); }
  [[nodiscard]] constexpr bool valid() const { return v_ != 0xffffffffu; }

  constexpr auto operator<=>(const NodeId&) const = default;

 private:
  std::uint32_t v_ = 0xffffffffu;
};

/// Identifies an application message end-to-end.
class MessageId {
 public:
  constexpr MessageId() = default;
  constexpr explicit MessageId(std::uint64_t v) : v_(v) {}

  [[nodiscard]] constexpr std::uint64_t value() const { return v_; }
  [[nodiscard]] static constexpr MessageId invalid() { return MessageId(~0ULL); }
  [[nodiscard]] constexpr bool valid() const { return v_ != ~0ULL; }

  constexpr auto operator<=>(const MessageId&) const = default;

 private:
  std::uint64_t v_ = ~0ULL;
};

/// Membership over the dense per-run message ids (traffic numbers a run's
/// messages 1..N): one bit per id, grown on insert.
class MessageIdSet {
 public:
  void insert(MessageId id) {
    if (!id.valid()) throw std::logic_error("MessageIdSet: invalid message id");
    const std::uint64_t v = id.value();
    if (v >= bits_.size()) bits_.resize(v + 1);
    bits_[v] = true;
  }
  [[nodiscard]] bool contains(MessageId id) const {
    return id.value() < bits_.size() && bits_[id.value()];
  }

 private:
  std::vector<bool> bits_;
};

[[nodiscard]] inline std::string to_string(NodeId id) {
  return "n" + std::to_string(id.value());
}
[[nodiscard]] inline std::string to_string(MessageId id) {
  return "m" + std::to_string(id.value());
}

}  // namespace g2g

template <>
struct std::hash<g2g::NodeId> {
  std::size_t operator()(g2g::NodeId id) const noexcept {
    return std::hash<std::uint32_t>{}(id.value());
  }
};

template <>
struct std::hash<g2g::MessageId> {
  std::size_t operator()(g2g::MessageId id) const noexcept {
    return std::hash<std::uint64_t>{}(id.value());
  }
};
