#include "transport/loopback.h"

namespace adaqp::transport {

void LoopbackTransport::send(const FrameTag& tag,
                             std::span<const std::uint8_t> payload) {
  (void)tag;
  (void)payload;
}

std::span<const std::uint8_t> LoopbackTransport::recv(
    const FrameTag& tag, std::span<const std::uint8_t> local) {
  return account_delivery(tag, local);
}

}  // namespace adaqp::transport
