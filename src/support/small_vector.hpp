#pragma once

// A vector of trivially copyable values that keeps its first N elements
// inside the object and moves to one heap block only past that. A mapping
// holds one per task, sized so that every benchmark application's tasks fit
// inline: copying a mapping then costs one allocation, not one per task.

#include <algorithm>
#include <array>
#include <cstddef>
#include <cstdint>
#include <initializer_list>
#include <limits>
#include <memory>
#include <type_traits>

#include "src/support/error.hpp"

namespace automap {

template <typename T, std::size_t N>
class SmallVector {
  static_assert(std::is_trivially_copyable_v<T> && N > 0);

 public:
  SmallVector() = default;
  SmallVector(std::initializer_list<T> values) {
    assign_range(values.begin(), values.end());
  }
  SmallVector(const SmallVector& other) {
    assign_range(other.begin(), other.end());
  }
  SmallVector(SmallVector&& other) noexcept { take(other); }
  SmallVector& operator=(const SmallVector& other) {
    if (this != &other) assign_range(other.begin(), other.end());
    return *this;
  }
  SmallVector& operator=(SmallVector&& other) noexcept {
    if (this != &other) take(other);
    return *this;
  }
  SmallVector& operator=(std::initializer_list<T> values) {
    assign_range(values.begin(), values.end());
    return *this;
  }

  [[nodiscard]] std::size_t size() const { return size_; }
  [[nodiscard]] bool empty() const { return size_ == 0; }
  [[nodiscard]] T* data() { return heap_ ? heap_.get() : inline_.data(); }
  [[nodiscard]] const T* data() const {
    return heap_ ? heap_.get() : inline_.data();
  }
  [[nodiscard]] T* begin() { return data(); }
  [[nodiscard]] T* end() { return data() + size_; }
  [[nodiscard]] const T* begin() const { return data(); }
  [[nodiscard]] const T* end() const { return data() + size_; }
  [[nodiscard]] T& operator[](std::size_t i) { return data()[i]; }
  [[nodiscard]] const T& operator[](std::size_t i) const { return data()[i]; }

  /// Makes room for `n` elements without reallocating on the way.
  void reserve(std::size_t n) {
    if (n <= capacity()) return;
    AM_REQUIRE(n <= std::numeric_limits<std::uint32_t>::max(),
               "small vector capacity overflow");
    auto grown = std::make_unique_for_overwrite<T[]>(n);
    std::copy(begin(), end(), grown.get());
    heap_ = std::move(grown);
    heap_capacity_ = static_cast<std::uint32_t>(n);
  }
  // The value is taken by copy: it may be an element the growth frees.
  void push_back(T value) {
    if (size_ == capacity()) reserve(2 * capacity());
    data()[size_++] = value;
  }
  /// Replaces the contents with `n` copies of `value`.
  void assign(std::size_t n, T value) {
    clear();
    reserve(n);
    std::fill_n(data(), n, value);
    size_ = static_cast<std::uint32_t>(n);
  }
  void clear() { size_ = 0; }

  friend bool operator==(const SmallVector& a, const SmallVector& b) {
    return std::equal(a.begin(), a.end(), b.begin(), b.end());
  }

 private:
  [[nodiscard]] std::size_t capacity() const {
    return heap_ ? heap_capacity_ : N;
  }
  void assign_range(const T* first, const T* last) {
    clear();
    reserve(static_cast<std::size_t>(last - first));
    std::copy(first, last, data());
    size_ = static_cast<std::uint32_t>(last - first);
  }
  /// Move: steals a heap block, copies inline elements, leaves `other`
  /// empty.
  void take(SmallVector& other) {
    heap_ = std::move(other.heap_);
    heap_capacity_ = other.heap_capacity_;
    if (!heap_) std::copy(other.begin(), other.begin() + other.size_, begin());
    size_ = other.size_;
    other.heap_capacity_ = 0;
    other.size_ = 0;
  }

  std::unique_ptr<T[]> heap_;  // null while the elements fit inline
  std::uint32_t heap_capacity_ = 0;
  std::uint32_t size_ = 0;
  std::array<T, N> inline_{};
};

}  // namespace automap
