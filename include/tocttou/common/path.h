// An immutable path, parsed once and shared by every copy.
//
// A Path parses its text once, at construction, into one heap block that
// holds a reference count, the text and the spans of its components: the
// components next_path_component yields (empty ones and "." dropped, ".."
// kept). Copying a Path copies one pointer and bumps the count, so a
// program's fixed paths, the ops it issues, their walkers and a symlink
// inode's target all share one parse, and no syscall copies or re-parses
// a path. The empty path holds no block.
//
// Handles of one block may live in different threads (an explorer worker
// forks a checkpoint that another minted), so the count is atomic, in
// the default sequentially consistent order like InodeChunk's; the block
// itself is never written after construction. The state digest hashes a
// Path as its text (sim/fields.h), exactly as it hashes the std::string
// it was built from.
#pragma once

#include <atomic>
#include <cstddef>
#include <cstdint>
#include <string>
#include <string_view>
#include <type_traits>
#include <utility>

namespace tocttou {

class Path {
 public:
  Path() noexcept = default;
  /// Parses `text`: one allocation, none for the empty text.
  Path(std::string_view text);
  Path(const char* text) : Path(std::string_view(text)) {}
  Path(const std::string& text) : Path(std::string_view(text)) {}

  Path(const Path& o) noexcept : b_(o.b_) {
    if (b_ != nullptr) ++b_->refs;
  }
  Path(Path&& o) noexcept : b_(std::exchange(o.b_, nullptr)) {}
  Path& operator=(const Path& o) noexcept {
    if (b_ != o.b_) *this = Path(o);
    return *this;
  }
  Path& operator=(Path&& o) noexcept {
    std::swap(b_, o.b_);  // `o` releases our old block
    return *this;
  }
  /// The last handle frees the block.
  ~Path() {
    if (b_ != nullptr && --b_->refs == 0) destroy(b_);
  }

  /// The text as it was given.
  std::string_view str() const {
    return b_ == nullptr ? std::string_view()
                         : std::string_view(text(), b_->text_size);
  }
  bool empty() const { return b_ == nullptr; }
  bool absolute() const { return b_ != nullptr && text()[0] == '/'; }

  /// The components, in order.
  std::size_t size() const { return b_ == nullptr ? 0 : b_->count; }
  std::string_view operator[](std::size_t i) const {
    const Span& s = spans()[i];
    return std::string_view(text() + s.begin, s.size);
  }
  /// The last component; the path must have one.
  std::string_view back() const { return (*this)[size() - 1]; }

  /// True iff both handles share one block.
  bool shares(const Path& o) const { return b_ == o.b_; }

  friend bool operator==(const Path& a, const Path& b) {
    return a.str() == b.str();
  }
  template <class S>
    requires std::is_convertible_v<const S&, std::string_view>
  friend bool operator==(const Path& a, const S& b) {
    return a.str() == std::string_view(b);
  }

 private:
  struct Span {
    std::uint32_t begin;
    std::uint32_t size;
  };
  /// Followed in the same allocation by `count` spans, then the text.
  struct Block {
    std::atomic<std::uint32_t> refs;
    std::uint32_t text_size;
    std::uint32_t count;
  };

  const Span* spans() const { return reinterpret_cast<const Span*>(b_ + 1); }
  const char* text() const {
    return reinterpret_cast<const char*>(spans() + b_->count);
  }
  static void destroy(Block* b);

  Block* b_ = nullptr;
};

}  // namespace tocttou
