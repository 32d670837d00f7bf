// The network stack (proto5): ethernet/ARP/IPv4 framing, UDP, and a small
// TCP (3-way handshake, cumulative ACK, go-back-N retransmission, listen/
// accept backlog) layered over the simulated NIC in src/hw/nic.h.
//
// Structure, following the paper's driver methodology: the hardware model
// owns timing, the stack owns protocol state. All protocol and socket state
// is guarded by one "net" spinlock (the stack is a monitor, like xv6's
// single-lock subsystems); the NIC descriptor rings are touched under a
// separate leaf "nic" lock so the TX path's net->nic nesting gives lockdep a
// real hierarchy edge to check. Blocking socket ops sleep on channels inside
// the tcb/socket with the net lock held (SleepOn releases it), exactly like
// Pipe; kills surface as kErrIntr, nonblock as kErrAgain.
//
// Everything — including connections from this kernel to itself, which is
// what bench_net drives by the hundred thousand — goes out through the NIC's
// TX DMA ring, crosses the virtual link (latency + seeded loss), and comes
// back through RX descriptors and a coalesced IRQ. There is no loopback
// shortcut; ARP resolution, DMA costs and retransmissions are all real. A
// packet is built once, at its wire size, by the layer that knows its payload;
// each layer below fills its header in place (kL4Off) and hands the buffer on
// by move, so the frame the receiver pops is the buffer the sender filled.
#ifndef VOS_SRC_KERNEL_NET_NET_H_
#define VOS_SRC_KERNEL_NET_NET_H_

#include <algorithm>
#include <array>
#include <cstdint>
#include <deque>
#include <memory>
#include <string>
#include <unordered_map>
#include <vector>

#include "src/base/units.h"
#include "src/hw/clock.h"
#include "src/hw/event_queue.h"
#include "src/hw/nic.h"
#include "src/kernel/kconfig.h"
#include "src/kernel/metrics.h"
#include "src/kernel/racedet.h"
#include "src/kernel/sched.h"
#include "src/kernel/spinlock.h"
#include "src/kernel/trace.h"

namespace vos {

// --- Wire constants ---------------------------------------------------------

using MacAddr = std::array<std::uint8_t, 6>;

constexpr std::uint16_t kEthTypeIpv4 = 0x0800;
constexpr std::uint16_t kEthTypeArp = 0x0806;
constexpr std::uint8_t kIpProtoTcp = 6;
constexpr std::uint8_t kIpProtoUdp = 17;
constexpr std::size_t kEthHdrLen = 14;
constexpr std::size_t kIpHdrLen = 20;
constexpr std::size_t kTcpHdrLen = 20;
constexpr std::size_t kUdpHdrLen = 8;
// In a frame's one buffer, TCP/UDP write at kL4Off, SendIp at kEthHdrLen, TxFrame at 0.
constexpr std::size_t kL4Off = kEthHdrLen + kIpHdrLen;

// TCP header flags.
constexpr std::uint8_t kTcpFin = 0x01;
constexpr std::uint8_t kTcpSyn = 0x02;
constexpr std::uint8_t kTcpRst = 0x04;
constexpr std::uint8_t kTcpPsh = 0x08;
constexpr std::uint8_t kTcpAck = 0x10;

// Sequence-space comparison with wraparound (RFC 793 arithmetic).
inline bool SeqLt(std::uint32_t a, std::uint32_t b) {
  return static_cast<std::int32_t>(a - b) < 0;
}
inline bool SeqLe(std::uint32_t a, std::uint32_t b) { return a == b || SeqLt(a, b); }

// Big-endian (network order) field access.
inline void Put16(std::uint8_t* p, std::uint16_t v) {
  p[0] = static_cast<std::uint8_t>(v >> 8);
  p[1] = static_cast<std::uint8_t>(v);
}
inline void Put32(std::uint8_t* p, std::uint32_t v) {
  p[0] = static_cast<std::uint8_t>(v >> 24);
  p[1] = static_cast<std::uint8_t>(v >> 16);
  p[2] = static_cast<std::uint8_t>(v >> 8);
  p[3] = static_cast<std::uint8_t>(v);
}
inline std::uint16_t Get16(const std::uint8_t* p) {
  return static_cast<std::uint16_t>((p[0] << 8) | p[1]);
}
inline std::uint32_t Get32(const std::uint8_t* p) {
  return (static_cast<std::uint32_t>(p[0]) << 24) | (static_cast<std::uint32_t>(p[1]) << 16) |
         (static_cast<std::uint32_t>(p[2]) << 8) | p[3];
}

// Ones'-complement internet checksum over `len` bytes plus an optional seed
// (used for the TCP/UDP pseudo-header). Exposed for tests.
std::uint16_t InetChecksum(const std::uint8_t* data, std::size_t len, std::uint32_t seed = 0);

// --- Stack sizes and timers ---------------------------------------------------

constexpr std::size_t kNetMtu = 1500;          // ethernet payload bytes per frame
constexpr std::size_t kNetSndBuf = 32768;      // per-socket send buffer bytes
constexpr std::size_t kNetRcvBuf = 32768;      // per-socket receive buffer bytes
constexpr Cycles kNetTimeWait = Ms(5);         // short TIME_WAIT (virtual time)
constexpr Cycles kNetRtoInitial = Ms(50);      // RTO toward a host never measured
constexpr std::uint32_t kNetMaxRetries = 8;    // RTO expiries before reset
constexpr std::uint32_t kNetSoMaxConn = 512;   // listen backlog hard cap
// RFC 6298's clock granularity G in RTO = SRTT + max(G, 4·RTTVAR). The stack
// stamps sends and arms timers with clock_.now(), the machine-loop window
// start, and a window runs up to one tick: an ACK already on the wire can be
// processed up to a tick (plus the IRQ coalescing window) after it arrived.
// One tick of G still fired spurious retransmits on the clean link; two fire
// none. G is a term, not a floor: on a deterministic link RTTVAR decays to 0,
// and SRTT alone would then sit inside that skew.
constexpr Cycles kNetRtoGranularity = 2 * kTickInterval;
// Boot values of the link knobs /proc/netstat retunes: an RX IRQ after 8
// frames or 50 µs, whichever comes first, over a 20 µs one-way wire.
constexpr std::uint32_t kNetIrqCoalesceFrames = 8;
constexpr std::uint32_t kNetIrqCoalesceUs = 50;
constexpr std::uint32_t kNetLinkLatencyUs = 20;

// --- Connection state -------------------------------------------------------

enum class TcpState : int {
  kClosed = 0,
  kListen,     // only on listening sockets, never on a tcb
  kSynSent,
  kSynRcvd,
  kEstablished,
  kFinWait1,
  kFinWait2,
  kCloseWait,
  kLastAck,
  kClosing,
  kTimeWait,
};

const char* TcpStateName(TcpState s);

// RFC 6298 round-trip estimator, in integer cycles. The stack keeps one per
// peer IP (NetStack::peer_rtt_), so a new connection, its SYN included,
// starts from what earlier connections to that host measured (RFC 9040's
// temporal sharing).
struct RttEstimator {
  Cycles srtt = 0;    // smoothed RTT
  Cycles rttvar = 0;  // RTT variation
  std::uint64_t samples = 0;

  void Sample(Cycles r) {
    if (samples == 0) {
      srtt = r;
      rttvar = r / 2;
    } else {
      rttvar = (3 * rttvar + (srtt > r ? srtt - r : r - srtt)) / 4;
      srtt = (7 * srtt + r) / 8;
    }
    ++samples;
  }
  // Before backoff; no cap, so a link slower than the initial RTO still works.
  Cycles Rto() const {
    return samples == 0 ? kNetRtoInitial : srtt + std::max(kNetRtoGranularity, 4 * rttvar);
  }
};

class Socket;

// One TCP connection endpoint. All fields are guarded by the stack's "net"
// lock; tcbs live in NetStack::tcbs_ keyed by (remote ip, remote port, local
// port) and are shared with the owning Socket (accept embryos have no socket
// yet, closed sockets may leave an orphan tcb finishing its teardown).
struct Tcb {
  std::uint32_t local_ip = 0;
  std::uint32_t remote_ip = 0;
  std::uint16_t local_port = 0;
  std::uint16_t remote_port = 0;
  TcpState state = TcpState::kClosed;

  // Send side. sndq holds bytes [sndq_seq, sndq_seq + size): unacked and
  // unsent data together — go-back-N retransmission replays from snd_una.
  std::uint32_t iss = 0;
  std::uint32_t snd_una = 0;
  std::uint32_t snd_nxt = 0;
  std::uint32_t snd_max = 0;      // highest sequence sent (go-back-N rewinds snd_nxt)
  std::uint32_t snd_wnd = 0;      // peer's advertised window
  std::uint32_t sndq_seq = 0;     // sequence number of sndq.front()
  std::deque<std::uint8_t> sndq;
  bool fin_queued = false;        // close()/shutdown(WR) requested
  bool fin_sent = false;          // FIN occupies fin_seq in seq space
  std::uint32_t fin_seq = 0;

  // Receive side (in-order only; out-of-order segments are dropped and the
  // sender's go-back-N recovers them).
  std::uint32_t irs = 0;
  std::uint32_t rcv_nxt = 0;
  std::deque<std::uint8_t> rcvq;
  bool peer_fin = false;          // FIN received and sequenced
  bool rcv_shutdown = false;      // shutdown(RD): drop further payload

  // Retransmission. At most one segment is timed at once, and only on its
  // first transmission (Karn's rule); its ACK feeds the peer's estimator.
  bool rto_armed = false;
  EventId rto_event = 0;
  std::uint32_t retries = 0;
  RttEstimator* rtt = nullptr;    // NetStack::peer_rtt_ entry for remote_ip
  bool rtt_timing = false;
  std::uint32_t rtt_seq = 0;      // the timed segment's first sequence number
  Cycles rtt_sent = 0;

  // Lifecycle.
  Socket* listener = nullptr;     // embryo: the listening socket that owns us
  bool sock_attached = false;     // a Socket currently references this tcb
  std::int64_t error = 0;         // sticky error (RST, too many retries)
  EventId time_wait_event = 0;

  // Sleep channels (monitor condition variables, as in Pipe).
  char rcv_chan = 0;
  char snd_chan = 0;
};

// The object a FileKind::kSocket File points at. Guarded by the "net" lock.
class Socket {
 public:
  enum class Type : int { kTcp = 0, kUdp = 1 };

  explicit Socket(Type t) : type(t) {}

  Type type;
  bool bound = false;
  std::uint16_t local_port = 0;

  // TCP.
  std::shared_ptr<Tcb> tcb;                    // connected/accepted endpoint
  bool listening = false;
  std::uint32_t backlog = 0;
  std::uint32_t embryos = 0;                   // half-open, not yet accept_q
  std::deque<std::shared_ptr<Tcb>> accept_q;   // established, awaiting accept
  char accept_chan = 0;

  // UDP.
  bool udp_connected = false;
  std::uint32_t udp_peer_ip = 0;
  std::uint16_t udp_peer_port = 0;
  std::deque<std::vector<std::uint8_t>> udpq;  // datagram payloads
  std::size_t udpq_bytes = 0;
  char udp_chan = 0;
};

// Counters exported through net.* gauges and /proc/netstat. Written under
// the net lock; gauge callbacks snapshot them token-serialized, like Pipe's
// readers()/writers() accessors.
struct NetStats {
  std::uint64_t ip_tx = 0;
  std::uint64_t ip_rx = 0;
  std::uint64_t ip_drop = 0;        // not for us / malformed / bad proto
  std::uint64_t csum_drop = 0;
  std::uint64_t arp_tx = 0;
  std::uint64_t arp_rx = 0;
  std::uint64_t udp_tx = 0;
  std::uint64_t udp_rx = 0;
  std::uint64_t udp_drop = 0;       // no socket / queue overflow
  std::uint64_t tcp_seg_tx = 0;
  std::uint64_t tcp_seg_rx = 0;
  std::uint64_t tcp_retransmit = 0;
  std::uint64_t tcp_active_open = 0;
  std::uint64_t tcp_passive_open = 0;
  std::uint64_t tcp_established = 0;  // monotonic: handshakes completed
  std::uint64_t tcp_rst_tx = 0;
  std::uint64_t tcp_rst_rx = 0;
  std::uint64_t tcp_accept_drop = 0;  // SYN dropped: backlog full
  std::uint64_t tcp_ooo_drop = 0;     // out-of-order/overflow payload dropped
};

// --- The stack --------------------------------------------------------------

class NetStack {
 public:
  NetStack(const KernelConfig& cfg, Sched& sched, VirtualClock& clock, EventQueue& events,
           TraceRing& trace, Metrics& metrics, Nic& nic);

  // Applies cfg knobs to the NIC (coalescing, link faults) and registers the
  // net.* gauges. Call once from Kernel::Boot.
  void Init();

  // --- Socket layer (syscall context; `cur` is the calling task) ---
  std::shared_ptr<Socket> CreateSocket(Socket::Type type);
  std::int64_t Bind(Socket& s, std::uint16_t port);
  std::int64_t Listen(Socket& s, std::uint32_t backlog);
  // On success fills *out (new connected socket) + peer address.
  std::int64_t Accept(Task* cur, Socket& s, bool nonblock, std::shared_ptr<Socket>* out,
                      std::uint32_t* peer_ip, std::uint16_t* peer_port, Cycles* burn);
  std::int64_t Connect(Task* cur, Socket& s, std::uint32_t ip, std::uint16_t port, bool nonblock,
                       Cycles* burn);
  std::int64_t Send(Task* cur, Socket& s, const std::uint8_t* buf, std::size_t n, bool nonblock,
                    Cycles* burn);
  std::int64_t Recv(Task* cur, Socket& s, std::uint8_t* buf, std::size_t n, bool nonblock,
                    Cycles* burn);
  // how: 0 = read side, 1 = write side (sends FIN), 2 = both.
  std::int64_t Shutdown(Task* cur, Socket& s, int how, Cycles* burn);
  // File-close hook (Vfs::Close): full teardown; the tcb may outlive the
  // socket as an orphan until its FIN handshake finishes.
  void CloseSocket(const std::shared_ptr<Socket>& s);

  // --- IRQ half: ack + drain the NIC RX ring, run the protocol input path.
  // Returns the cycles to charge the interrupted core.
  Cycles OnNicIrq(Cycles now);

  // --- /proc/netstat ---
  std::string NetstatText() const;
  // /proc/netstat writes (RunProcCommands syntax): "loss <ppm>" |
  // "latency_us <n>" | "seed <n>" | "coalesce <frames> <us>". Returns 0 or
  // kErrInval.
  std::int64_t Control(const std::string& text);

  const NetStats& stats() const { return stats_; }  // racedet: ok (token-serialized snapshot)
  std::size_t tcb_count() const { return tcbs_.size(); }  // racedet: ok (token-serialized snapshot)
  std::uint32_t ip() const { return cfg_.net_ip; }

 private:
  // 4-tuple demux key; local_ip is fixed so (remote ip, remote port, local
  // port) identifies a connection.
  static std::uint64_t TcbKey(std::uint32_t rip, std::uint16_t rport, std::uint16_t lport) {
    return (static_cast<std::uint64_t>(rip) << 32) |
           (static_cast<std::uint64_t>(rport) << 16) | lport;
  }
  static std::uint64_t KeyOf(const Tcb& t) {
    return TcbKey(t.remote_ip, t.remote_port, t.local_port);
  }

  // Frame/packet output (net lock held; TxFrame takes the nic lock: the
  // net->nic lockdep edge). TxFrame and SendIp take a frame built at its wire
  // size and fill their own header in place. `burn` may be nullptr in timer
  // context.
  void TxFrame(const MacAddr& dst, std::uint16_t ethertype, NicFrame frame, Cycles* burn);
  void SendIp(std::uint32_t dst_ip, std::uint8_t proto, NicFrame frame, Cycles* burn);
  // op 1 = request (broadcast, target MAC unknown), 2 = reply.
  void SendArp(std::uint16_t op, const MacAddr& dst, const MacAddr& target_mac,
               std::uint32_t target_ip, Cycles* burn);

  // Input path (net lock held).
  void HandleFrame(const NicFrame& f, Cycles* burn);
  void HandleArp(const std::uint8_t* p, std::size_t len, Cycles* burn);
  void HandleIp(const std::uint8_t* p, std::size_t len, Cycles* burn);
  void HandleUdp(const std::uint8_t* p, std::size_t len, Cycles* burn);
  void HandleTcp(std::uint32_t src_ip, const std::uint8_t* p, std::size_t len, Cycles* burn);

  // TCP machinery (tcp.cc; net lock held).
  struct TcpSeg {
    std::uint32_t src_ip = 0;
    std::uint16_t sport = 0;
    std::uint16_t dport = 0;
    std::uint32_t seq = 0;
    std::uint32_t ack = 0;
    std::uint8_t flags = 0;
    std::uint16_t wnd = 0;
    const std::uint8_t* data = nullptr;
    std::size_t len = 0;
  };
  void TcpInput(const std::shared_ptr<Tcb>& t, const TcpSeg& seg, Cycles* burn);
  void TcpPassiveOpen(Socket* listener, const TcpSeg& seg, Cycles* burn);
  // Sends one segment; its `len` payload bytes are sndq's from `seq` on. A
  // first transmission (seq == snd_max) is timed when nothing else is.
  void TcpSendSeg(Tcb& t, std::uint8_t flags, std::uint32_t seq, std::size_t len, Cycles* burn);
  void TcpSendRstFor(const TcpSeg& seg, Cycles* burn);
  // Sends whatever the window allows from sndq (plus a queued FIN).
  void TcpPushSend(const std::shared_ptr<Tcb>& tcb, Cycles* burn);
  // An ACK past the timed segment feeds the peer's estimator.
  void TcpRttAck(Tcb& t, std::uint32_t ack);
  void TcpArmRto(const std::shared_ptr<Tcb>& t);
  void TcpDisarmRto(Tcb& t);
  void TcpOnRto(const std::shared_ptr<Tcb>& t);
  void TcpEnterTimeWait(const std::shared_ptr<Tcb>& t);
  // RST/failure teardown: sticky error, wake all waiters, drop from table.
  void TcpKill(const std::shared_ptr<Tcb>& t, std::int64_t err);
  // A new tcb toward (rip, rport) from lport, in the table and bound to the
  // peer's RTT estimator.
  std::shared_ptr<Tcb> NewTcb(std::uint32_t rip, std::uint16_t rport, std::uint16_t lport,
                              TcpState state);
  void RemoveTcb(const std::shared_ptr<Tcb>& t);
  void CloseTcbHalf(const std::shared_ptr<Tcb>& t, Cycles* burn);  // shutdown(WR) logic

  std::uint16_t AllocEphemeralPort(std::uint32_t rip, std::uint16_t rport);
  bool PortBound(std::uint16_t port) const;
  void ApplyLinkFaultsLocked();  // net lock held; takes the nic lock
  void Charge(Cycles* burn, Cycles c) {
    if (burn != nullptr) {
      *burn += c;
    }
  }

  const KernelConfig& cfg_;
  Sched& sched_;
  VirtualClock& clock_;
  EventQueue& events_;
  TraceRing& trace_;
  Metrics& metrics_;
  Nic& nic_;

  MacAddr mac_{};

  mutable SpinLock lock_{"net"};      // the stack monitor
  mutable SpinLock nic_lock_{"nic"};  // leaf: NIC descriptor rings only

  // ARP: resolved neighbours plus frames parked awaiting resolution.
  std::unordered_map<std::uint32_t, MacAddr> arp_cache_;       // racedet: shared (guarded by lock_)
  std::unordered_map<std::uint32_t, std::deque<NicFrame>>
      arp_pending_;                                            // racedet: shared (guarded by lock_)

  std::unordered_map<std::uint64_t, std::shared_ptr<Tcb>> tcbs_;  // racedet: shared (guarded by lock_)
  // Per-peer RTT estimators; never erased, so a Tcb keeps a pointer to its own.
  std::unordered_map<std::uint32_t, RttEstimator> peer_rtt_;      // racedet: shared (guarded by lock_)
  std::unordered_map<std::uint16_t, Socket*> listeners_;          // racedet: shared (guarded by lock_)
  std::unordered_map<std::uint16_t, Socket*> udp_binds_;          // racedet: shared (guarded by lock_)
  std::uint32_t next_ephemeral_ = 32768;                          // racedet: shared (guarded by lock_)
  std::uint32_t next_iss_ = 1;                                    // racedet: shared (guarded by lock_)

  NetStats stats_;  // racedet: ok (aggregate; members written under lock_, gauges snapshot)
  std::uint64_t sockets_live_ = 0;  // racedet: shared (guarded by lock_)

  // Runtime link-fault state (/proc/netstat command language); loss and seed
  // come from the cfg knobs at Init.
  std::uint32_t loss_ppm_override_ = 0;
  std::uint32_t latency_us_override_ = kNetLinkLatencyUs;
  std::uint64_t seed_override_ = 1;
};

}  // namespace vos

#endif  // VOS_SRC_KERNEL_NET_NET_H_
