// UDP: datagram input and the (connected-socket) send path. Net lock held.
#include <cstring>

#include "src/base/status.h"
#include "src/kernel/net/net.h"

namespace vos {

void NetStack::HandleUdp(const std::uint8_t* p, std::size_t len, Cycles* burn) {
  Charge(burn, cfg_.cost.net_proto_per_seg);
  if (len < kUdpHdrLen) {
    ++stats_.udp_drop;
    return;
  }
  std::uint16_t dport = Get16(p + 2);
  std::uint16_t ulen = Get16(p + 4);
  if (ulen < kUdpHdrLen || ulen > len) {
    ++stats_.udp_drop;
    return;
  }
  auto it = RD_READ(udp_binds_).find(dport);
  if (it == RD_READ(udp_binds_).end()) {
    ++stats_.udp_drop;
    return;
  }
  Socket* s = it->second;
  std::size_t payload = ulen - kUdpHdrLen;
  if (s->udpq.size() >= 64 || s->udpq_bytes + payload > kNetRcvBuf) {
    ++stats_.udp_drop;
    return;
  }
  s->udpq_bytes += payload;
  s->udpq.emplace_back(p + kUdpHdrLen, p + kUdpHdrLen + payload);
  ++stats_.udp_rx;
  Charge(burn, static_cast<Cycles>(static_cast<double>(payload) * cfg_.cost.net_copy_per_byte));
  sched_.Wakeup(&s->udp_chan);
}

}  // namespace vos
