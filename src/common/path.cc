#include "tocttou/common/path.h"

#include <cstring>
#include <limits>
#include <new>

#include "tocttou/common/error.h"
#include "tocttou/common/strings.h"

namespace tocttou {

Path::Path(std::string_view text) {
  if (text.empty()) return;
  TOCTTOU_CHECK(text.size() < std::numeric_limits<std::uint32_t>::max(),
                "path too long");
  std::uint32_t count = 0;
  std::size_t pos = 0;
  while (!next_path_component(text, pos).empty()) ++count;

  void* mem = ::operator new(sizeof(Block) + count * sizeof(Span) +
                             text.size());
  b_ = new (mem) Block{{1}, static_cast<std::uint32_t>(text.size()), count};
  Span* spans = reinterpret_cast<Span*>(b_ + 1);
  char* copy = reinterpret_cast<char*>(spans + count);
  std::memcpy(copy, text.data(), text.size());
  pos = 0;
  for (std::uint32_t i = 0; i < count; ++i) {
    const std::string_view c = next_path_component(text, pos);
    spans[i] = Span{static_cast<std::uint32_t>(c.data() - text.data()),
                    static_cast<std::uint32_t>(c.size())};
  }
}

void Path::destroy(Block* b) {
  b->~Block();
  ::operator delete(b);
}

}  // namespace tocttou
