// Networking tests: checksum/sequence arithmetic and RTT-estimator units, UDP
// and TCP loopback end-to-end through the simulated NIC, ARP parking behind an
// unresolved peer, socket edge cases (nonblocking accept, recv-after-shutdown,
// EINTR while parked in accept, backlog overflow), lossy-link retransmission
// and the RTT-sized RTO, /proc/netstat, and the kvserver app — all on a
// booted Prototype-5 system with the virtual ethernet link.
#include <gtest/gtest.h>

#include <algorithm>
#include <cstring>
#include <string>
#include <vector>

#include "src/base/status.h"
#include "src/kernel/net/net.h"
#include "src/ulib/usys.h"
#include "src/vos/prototypes.h"
#include "src/vos/system.h"
#include "tests/run_in_os.h"

namespace vos {
namespace {

class NetTest : public ::testing::Test {
 protected:
  NetTest() : sys_(OptionsForStage(Stage::kProto5)) {}
  System sys_;
};

// One kvserver connection on this host: connect, send `req`, read the reply
// to EOF into *resp, close. Returns 0, or <0 when a step fails.
int KvRequest(AppEnv& env, std::uint16_t port, const std::string& req, std::string* resp) {
  std::uint32_t ip = env.kernel->config().net_ip;
  std::int64_t fd = usocket(env, 0);
  if (fd < 0 || uconnect(env, static_cast<int>(fd), ip, port) < 0) {
    return -1;
  }
  if (usend_all(env, static_cast<int>(fd), req.data(), static_cast<std::uint32_t>(req.size())) !=
      static_cast<std::int64_t>(req.size())) {
    return -2;
  }
  char buf[256];
  for (;;) {
    std::int64_t n = urecv(env, static_cast<int>(fd), buf, sizeof(buf));
    if (n == kErrIntr) {
      continue;
    }
    if (n <= 0) {
      break;
    }
    resp->append(buf, static_cast<std::size_t>(n));
  }
  uclose(env, static_cast<int>(fd));
  return 0;
}

// Writes one /proc/netstat command. Returns 0, or <0 when it is refused.
int NetstatCommand(AppEnv& env, const std::string& cmd) {
  std::int64_t fd = uopen(env, "/proc/netstat", kOWronly);
  if (fd < 0) {
    return -1;
  }
  std::int64_t n =
      uwrite(env, static_cast<int>(fd), cmd.data(), static_cast<std::uint32_t>(cmd.size()));
  uclose(env, static_cast<int>(fd));
  return n < 0 ? -2 : 0;
}

std::string ReadNetstat(AppEnv& env) {
  std::vector<std::uint8_t> text;
  uread_file(env, "/proc/netstat", &text);
  return std::string(text.begin(), text.end());
}

// A field of /proc/netstat's first `rtt <ip> ...` line; -1 when absent.
long long RttField(const std::string& netstat, const std::string& field) {
  std::size_t line = netstat.find("\nrtt ");
  if (line == std::string::npos) {
    return -1;
  }
  std::size_t eol = netstat.find('\n', line + 1);
  std::size_t at = netstat.find(" " + field + " ", line);
  if (at == std::string::npos || at > eol) {
    return -1;
  }
  return std::stoll(netstat.substr(at + field.size() + 2));
}

// --- Pure units --------------------------------------------------------------

TEST(NetUnits, InetChecksumSelfVerifies) {
  // RFC 1071 property: a buffer that carries its own checksum sums to zero.
  std::uint8_t hdr[20] = {0x45, 0x00, 0x00, 0x3c, 0x1c, 0x46, 0x40, 0x00, 0x40, 0x06,
                          0x00, 0x00, 0xac, 0x10, 0x0a, 0x63, 0xac, 0x10, 0x0a, 0x0c};
  std::uint16_t c = InetChecksum(hdr, sizeof(hdr));
  EXPECT_NE(c, 0u);
  hdr[10] = static_cast<std::uint8_t>(c >> 8);
  hdr[11] = static_cast<std::uint8_t>(c & 0xff);
  EXPECT_EQ(InetChecksum(hdr, sizeof(hdr)), 0u);
  // Odd-length buffers pad with a zero byte, not garbage.
  std::uint8_t odd[3] = {0xab, 0xcd, 0xef};
  EXPECT_EQ(InetChecksum(odd, 3), InetChecksum((const std::uint8_t[4]){0xab, 0xcd, 0xef, 0x00}, 4));
}

TEST(NetUnits, RttEstimatorFollowsRfc6298) {
  EXPECT_EQ(kNetRtoInitial, Ms(50));
  EXPECT_EQ(kNetRtoGranularity, Ms(2));
  RttEstimator e;
  EXPECT_EQ(e.Rto(), kNetRtoInitial);  // a peer never measured
  // The first sample R: SRTT R, RTTVAR R/2, RTO R + max(G, 2R).
  e.Sample(Us(300));
  EXPECT_EQ(e.srtt, Us(300));
  EXPECT_EQ(e.rttvar, Us(150));
  EXPECT_EQ(e.Rto(), Us(300) + kNetRtoGranularity);  // 2R = 600 µs < G
  RttEstimator slow;
  slow.Sample(Ms(10));
  EXPECT_EQ(slow.rttvar, Ms(5));
  EXPECT_EQ(slow.Rto(), Ms(30));  // 2R = 20 ms > G
  // Later samples: RTTVAR = (3·RTTVAR + |SRTT − R|)/4, then SRTT = (7·SRTT + R)/8.
  slow.Sample(Ms(2));
  EXPECT_EQ(slow.rttvar, Us(5750));
  EXPECT_EQ(slow.srtt, Ms(9));
  EXPECT_EQ(slow.Rto(), Ms(32));
  EXPECT_EQ(slow.samples, 2u);
  // A run of identical samples keeps SRTT and decays RTTVAR to 0, so the RTO
  // falls to SRTT + G: G is a term, not a floor under SRTT + 4·RTTVAR.
  RttEstimator steady;
  steady.Sample(Ms(10));
  steady.Sample(Ms(10));
  EXPECT_EQ(steady.rttvar, Us(3750));
  EXPECT_EQ(steady.Rto(), Ms(25));
  for (int i = 0; i < 98; ++i) {
    Cycles before = steady.rttvar;
    steady.Sample(Ms(10));
    EXPECT_LE(steady.rttvar, before);
  }
  EXPECT_EQ(steady.srtt, Ms(10));
  EXPECT_EQ(steady.rttvar, 0u);
  EXPECT_EQ(steady.Rto(), Ms(10) + kNetRtoGranularity);
  EXPECT_EQ(steady.samples, 100u);
}

TEST(NetUnits, SequenceComparisonWraps) {
  EXPECT_TRUE(SeqLt(1, 2));
  EXPECT_FALSE(SeqLt(2, 2));
  EXPECT_TRUE(SeqLe(2, 2));
  // Wraparound: 0xffffff00 is "before" 0x00000010.
  EXPECT_TRUE(SeqLt(0xffffff00u, 0x00000010u));
  EXPECT_FALSE(SeqLt(0x00000010u, 0xffffff00u));
}

// --- Loopback datagram + stream paths ---------------------------------------

TEST_F(NetTest, UdpLoopbackRoundTrip) {
  int rc = RunInOs(sys_, "udp-rt", [](AppEnv& env) -> int {
    std::uint32_t ip = env.kernel->config().net_ip;
    std::int64_t a = usocket(env, /*type=*/1);
    std::int64_t b = usocket(env, /*type=*/1);
    if (a < 0 || b < 0) {
      return 1;
    }
    if (ubind(env, static_cast<int>(a), 5000) < 0 || ubind(env, static_cast<int>(b), 5001) < 0) {
      return 2;
    }
    if (uconnect(env, static_cast<int>(a), ip, 5001) < 0 ||
        uconnect(env, static_cast<int>(b), ip, 5000) < 0) {
      return 3;
    }
    const char msg[] = "ping over the wire";
    if (usend(env, static_cast<int>(a), msg, sizeof(msg)) !=
        static_cast<std::int64_t>(sizeof(msg))) {
      return 4;
    }
    char got[64] = {};
    std::int64_t n = urecv(env, static_cast<int>(b), got, sizeof(got));
    if (n != static_cast<std::int64_t>(sizeof(msg)) || std::string(got) != msg) {
      return 5;
    }
    // And back the other way.
    if (usend(env, static_cast<int>(b), msg, 4) != 4) {
      return 6;
    }
    if (urecv(env, static_cast<int>(a), got, sizeof(got)) != 4) {
      return 7;
    }
    uclose(env, static_cast<int>(a));
    uclose(env, static_cast<int>(b));
    return 0;
  });
  EXPECT_EQ(rc, 0);
  // The datagrams really crossed the simulated link: ARP resolved, frames
  // moved through the NIC rings, and RX interrupts fired.
  const NetStack* net = sys_.kernel().net();
  ASSERT_NE(net, nullptr);
  EXPECT_GE(net->stats().udp_rx, 2u);
  EXPECT_GE(net->stats().arp_tx, 1u);
}

TEST_F(NetTest, TcpLoopbackEchoAndEof) {
  int rc = RunInOs(sys_, "tcp-echo", [](AppEnv& env) -> int {
    std::uint32_t ip = env.kernel->config().net_ip;
    std::int64_t lfd = usocket(env, 0);
    if (lfd < 0 || ubind(env, static_cast<int>(lfd), 7000) < 0 ||
        ulisten(env, static_cast<int>(lfd), 8) < 0) {
      return 1;
    }
    int server_rc = -1;
    std::int64_t tid = uclone(env, [&env, lfd, &server_rc]() -> int {
      // Echo server: accept one connection, echo until EOF, close.
      std::int64_t cfd = uaccept(env, static_cast<int>(lfd));
      if (cfd < 0) {
        server_rc = 1;
        return 1;
      }
      char buf[256];
      for (;;) {
        std::int64_t n = urecv(env, static_cast<int>(cfd), buf, sizeof(buf));
        if (n == kErrIntr) {
          continue;
        }
        if (n <= 0) {
          break;  // EOF after the client's shutdown
        }
        if (usend_all(env, static_cast<int>(cfd), buf, static_cast<std::uint32_t>(n)) != n) {
          server_rc = 2;
          return 2;
        }
      }
      uclose(env, static_cast<int>(cfd));
      server_rc = 0;
      return 0;
    });
    if (tid < 0) {
      return 2;
    }
    std::int64_t cfd = usocket(env, 0);
    if (cfd < 0 || uconnect(env, static_cast<int>(cfd), ip, 7000) < 0) {
      return 3;
    }
    const std::string msg = "hello tcp, three-way handshake complete";
    if (usend_all(env, static_cast<int>(cfd), msg.data(), static_cast<std::uint32_t>(msg.size())) !=
        static_cast<std::int64_t>(msg.size())) {
      return 4;
    }
    std::string got;
    char buf[64];
    while (got.size() < msg.size()) {
      std::int64_t n = urecv(env, static_cast<int>(cfd), buf, sizeof(buf));
      if (n <= 0) {
        return 5;
      }
      got.append(buf, static_cast<std::size_t>(n));
    }
    if (got != msg) {
      return 6;
    }
    // Half-close: our FIN reaches the echo server, it drains + closes, and
    // our next recv sees a clean EOF (0), not an error.
    if (ushutdown(env, static_cast<int>(cfd), 1) < 0) {
      return 7;
    }
    std::int64_t n = urecv(env, static_cast<int>(cfd), buf, sizeof(buf));
    if (n != 0) {
      return 8;
    }
    uclose(env, static_cast<int>(cfd));
    if (uwait(env, nullptr) != tid) {
      return 9;
    }
    uclose(env, static_cast<int>(lfd));
    return server_rc == 0 ? 0 : 10;
  });
  EXPECT_EQ(rc, 0);
  const NetStack* net = sys_.kernel().net();
  ASSERT_NE(net, nullptr);
  EXPECT_GE(net->stats().tcp_established, 1u);
  EXPECT_GE(net->stats().tcp_passive_open, 1u);
  EXPECT_GE(net->stats().tcp_active_open, 1u);
}

// --- Socket edge cases -------------------------------------------------------

TEST_F(NetTest, AcceptOnEmptyBacklog) {
  int rc = RunInOs(sys_, "accept-edge", [](AppEnv& env) -> int {
    std::uint32_t ip = env.kernel->config().net_ip;
    // Nonblocking listener: accept with nothing queued is EAGAIN, not a hang.
    std::int64_t lfd = usocket(env, 0, /*flags=*/1);
    if (lfd < 0 || ubind(env, static_cast<int>(lfd), 7100) < 0 ||
        ulisten(env, static_cast<int>(lfd), 4) < 0) {
      return 1;
    }
    if (uaccept(env, static_cast<int>(lfd)) != kErrAgain) {
      return 2;
    }
    // A connecting peer turns the next accept into a success. The connect
    // runs in a sibling thread; the nonblocking accept polls for it.
    std::int64_t tid = uclone(env, [&env, ip]() -> int {
      std::int64_t cfd = usocket(env, 0);
      if (cfd < 0 || uconnect(env, static_cast<int>(cfd), ip, 7100) < 0) {
        return 1;
      }
      uclose(env, static_cast<int>(cfd));
      return 0;
    });
    if (tid < 0) {
      return 3;
    }
    std::int64_t cfd = kErrAgain;
    for (int spin = 0; spin < 1000 && cfd == kErrAgain; ++spin) {
      std::uint32_t peer_ip = 0;
      std::uint16_t peer_port = 0;
      cfd = uaccept(env, static_cast<int>(lfd), &peer_ip, &peer_port);
      if (cfd >= 0 && peer_ip != ip) {
        return 4;  // loopback peer must be our own address
      }
      usleep_ms(env, 1);
    }
    if (cfd < 0) {
      return 5;
    }
    uwait(env, nullptr);
    uclose(env, static_cast<int>(cfd));
    uclose(env, static_cast<int>(lfd));
    return 0;
  });
  EXPECT_EQ(rc, 0);
}

TEST_F(NetTest, RecvAfterPeerShutdownDrainsThenEof) {
  int rc = RunInOs(sys_, "recv-shut", [](AppEnv& env) -> int {
    std::uint32_t ip = env.kernel->config().net_ip;
    std::int64_t lfd = usocket(env, 0);
    if (lfd < 0 || ubind(env, static_cast<int>(lfd), 7200) < 0 ||
        ulisten(env, static_cast<int>(lfd), 4) < 0) {
      return 1;
    }
    std::int64_t tid = uclone(env, [&env, ip]() -> int {
      std::int64_t cfd = usocket(env, 0);
      if (cfd < 0 || uconnect(env, static_cast<int>(cfd), ip, 7200) < 0) {
        return 1;
      }
      // Send payload, then FIN. The data must stay readable after the FIN.
      if (usend_all(env, static_cast<int>(cfd), "payload!", 8) != 8) {
        return 2;
      }
      ushutdown(env, static_cast<int>(cfd), 1);
      // Keep the fd open until the peer read everything (close would too,
      // but this pins the pure-shutdown path).
      usleep_ms(env, 50);
      uclose(env, static_cast<int>(cfd));
      return 0;
    });
    if (tid < 0) {
      return 2;
    }
    std::int64_t cfd = uaccept(env, static_cast<int>(lfd));
    if (cfd < 0) {
      return 3;
    }
    usleep_ms(env, 20);  // let both the payload and the FIN arrive
    char buf[16] = {};
    std::int64_t n = urecv(env, static_cast<int>(cfd), buf, sizeof(buf));
    if (n != 8 || std::memcmp(buf, "payload!", 8) != 0) {
      return 4;
    }
    // Queue drained + peer FIN seen: EOF now, and on every later recv.
    if (urecv(env, static_cast<int>(cfd), buf, sizeof(buf)) != 0) {
      return 5;
    }
    if (urecv(env, static_cast<int>(cfd), buf, sizeof(buf)) != 0) {
      return 6;
    }
    uwait(env, nullptr);
    uclose(env, static_cast<int>(cfd));
    uclose(env, static_cast<int>(lfd));
    return 0;
  });
  EXPECT_EQ(rc, 0);
}

TEST_F(NetTest, EintrDuringAccept) {
  Kernel* k = &sys_.kernel();
  int rc = RunInOs(sys_, "acc-eintr", [k](AppEnv& env) -> int {
    std::int64_t lfd = usocket(env, 0);
    if (lfd < 0 || ubind(env, static_cast<int>(lfd), 7300) < 0 ||
        ulisten(env, static_cast<int>(lfd), 4) < 0) {
      return 1;
    }
    std::int64_t observed = -1000;
    std::int64_t pid = ufork(env, [k, lfd, &observed]() -> int {
      AppEnv me = ChildEnv(k);
      // Parks forever: nobody connects. The kill must surface as kErrIntr
      // from the accept, stashed before the exit trap reaps us.
      observed = uaccept(me, static_cast<int>(lfd));
      return 0;
    });
    if (pid < 0) {
      return 2;
    }
    usleep_ms(env, 10);  // let the child park in accept
    ukill(env, static_cast<int>(pid));
    if (uwait(env, nullptr) != pid) {
      return 3;
    }
    uclose(env, static_cast<int>(lfd));
    return observed == kErrIntr ? 0 : 4;
  });
  EXPECT_EQ(rc, 0);
}

TEST_F(NetTest, BacklogOverflowDropsSyn) {
  int rc = RunInOs(sys_, "backlog", [](AppEnv& env) -> int {
    std::uint32_t ip = env.kernel->config().net_ip;
    std::int64_t lfd = usocket(env, 0);
    // Backlog of 1: the first handshake fills it; later SYNs are shed.
    if (lfd < 0 || ubind(env, static_cast<int>(lfd), 7400) < 0 ||
        ulisten(env, static_cast<int>(lfd), 1) < 0) {
      return 1;
    }
    std::vector<int> fds;
    for (int i = 0; i < 4; ++i) {
      std::int64_t cfd = usocket(env, 0, /*flags=*/1);  // nonblocking connect
      if (cfd < 0) {
        return 2;
      }
      std::int64_t r = uconnect(env, static_cast<int>(cfd), ip, 7400);
      if (r != kErrAgain && r != 0) {
        return 3;
      }
      fds.push_back(static_cast<int>(cfd));
    }
    usleep_ms(env, 30);  // handshakes + retransmits churn
    for (int fd : fds) {
      uclose(env, fd);
    }
    uclose(env, static_cast<int>(lfd));
    return 0;
  });
  EXPECT_EQ(rc, 0);
  const NetStack* net = sys_.kernel().net();
  ASSERT_NE(net, nullptr);
  EXPECT_GE(net->stats().tcp_accept_drop, 1u);
  // Closing the listener resets its queued connection; that RST is one
  // segment, counted once.
  EXPECT_EQ(net->stats().tcp_seg_tx + net->stats().udp_tx, net->stats().ip_tx);
}

TEST_F(NetTest, ArpParksFramesUntilResolved) {
  // Over a 5 ms wire, 70 datagrams leave before the first ARP answer can
  // land. ARP parks 64 frames for the unresolved peer and drops the rest;
  // the parked ones go out in order once it resolves.
  int rc = RunInOs(sys_, "arp-park", [](AppEnv& env) -> int {
    std::uint32_t ip = env.kernel->config().net_ip;
    if (NetstatCommand(env, "latency_us 5000") != 0) {
      return 1;
    }
    std::int64_t a = usocket(env, /*type=*/1);
    std::int64_t b = usocket(env, /*type=*/1);
    if (a < 0 || b < 0 || ubind(env, static_cast<int>(a), 5200) < 0 ||
        ubind(env, static_cast<int>(b), 5201) < 0 ||
        uconnect(env, static_cast<int>(a), ip, 5201) < 0) {
      return 2;
    }
    Cycles start = env.kernel->Now();
    for (std::uint32_t i = 0; i < 70; ++i) {
      if (usend(env, static_cast<int>(a), &i, 4) != 4) {
        return 3;
      }
    }
    if (env.kernel->Now() - start >= Ms(5)) {
      return 4;  // the sends did not all beat the first answer
    }
    for (std::uint32_t i = 0; i < 64; ++i) {
      std::uint32_t got = ~0u;
      if (urecv(env, static_cast<int>(b), &got, 4) != 4 || got != i) {
        return 5;
      }
    }
    usleep_ms(env, 20);  // anything else in flight lands meanwhile
    uclose(env, static_cast<int>(a));
    uclose(env, static_cast<int>(b));
    return 0;
  });
  EXPECT_EQ(rc, 0);
  const NetStack* net = sys_.kernel().net();
  ASSERT_NE(net, nullptr);
  EXPECT_EQ(net->stats().ip_drop, 6u);
  EXPECT_EQ(net->stats().udp_rx, 64u);
}

// --- Fault injection ---------------------------------------------------------

class LossyNetTest : public ::testing::Test {
 protected:
  LossyNetTest()
      : sys_([] {
          SystemOptions opt = OptionsForStage(Stage::kProto5);
          opt.config_hook = [](KernelConfig& cfg) {
            cfg.net_link_loss_ppm = 80000;  // 8% frame loss
            cfg.net_link_seed = 12345;
          };
          return opt;
        }()) {}
  System sys_;
};

TEST_F(LossyNetTest, RetransmitsHealFrameLoss) {
  int rc = RunInOs(sys_, "lossy-tcp", [](AppEnv& env) -> int {
    std::uint32_t ip = env.kernel->config().net_ip;
    std::int64_t lfd = usocket(env, 0);
    if (lfd < 0 || ubind(env, static_cast<int>(lfd), 7500) < 0 ||
        ulisten(env, static_cast<int>(lfd), 4) < 0) {
      return 1;
    }
    int got_total = 0;
    std::int64_t tid = uclone(env, [&env, lfd, &got_total]() -> int {
      std::int64_t cfd = uaccept(env, static_cast<int>(lfd));
      if (cfd < 0) {
        return 1;
      }
      char buf[512];
      std::uint8_t expect = 0;
      for (;;) {
        std::int64_t n = urecv(env, static_cast<int>(cfd), buf, sizeof(buf));
        if (n == kErrIntr) {
          continue;
        }
        if (n <= 0) {
          break;
        }
        // The byte stream must arrive exactly in order despite frame loss.
        for (std::int64_t i = 0; i < n; ++i) {
          if (static_cast<std::uint8_t>(buf[i]) != expect) {
            return 2;
          }
          expect = static_cast<std::uint8_t>(expect + 1);
        }
        got_total += static_cast<int>(n);
      }
      uclose(env, static_cast<int>(cfd));
      return 0;
    });
    if (tid < 0) {
      return 2;
    }
    std::int64_t cfd = usocket(env, 0);
    if (cfd < 0 || uconnect(env, static_cast<int>(cfd), ip, 7500) < 0) {
      return 3;
    }
    std::vector<std::uint8_t> data(32768);
    for (std::size_t i = 0; i < data.size(); ++i) {
      data[i] = static_cast<std::uint8_t>(i & 0xff);
    }
    if (usend_all(env, static_cast<int>(cfd), data.data(),
                  static_cast<std::uint32_t>(data.size())) !=
        static_cast<std::int64_t>(data.size())) {
      return 4;
    }
    ushutdown(env, static_cast<int>(cfd), 1);
    if (uwait(env, nullptr) != tid) {
      return 5;
    }
    uclose(env, static_cast<int>(cfd));
    uclose(env, static_cast<int>(lfd));
    return got_total == 32768 ? 0 : 6;
  });
  EXPECT_EQ(rc, 0);
  const NetStack* net = sys_.kernel().net();
  ASSERT_NE(net, nullptr);
  // An 8% lossy link over ~hundreds of frames must have dropped and healed.
  EXPECT_GT(net->stats().tcp_retransmit, 0u);
  // The NIC counted the shed frames.
  EXPECT_GT(sys_.board().nic().link_dropped(), 0u);
}

// A warm peer heals a loss within its measured RTO: on a 2% lossy link, no
// connection after the first few waits out the initial RTO, as every one that
// lost a segment did when the RTO was a fixed 50 ms.
TEST(LossyRto, WarmPeerHealsWithinTheLinkSizedRto) {
  SystemOptions opt = OptionsForStage(Stage::kProto5);
  opt.config_hook = [](KernelConfig& cfg) {
    cfg.net_link_loss_ppm = 20000;
    cfg.net_link_seed = 4242;
  };
  System sys(opt);
  constexpr int kConns = 300;
  constexpr int kWarm = 20;
  Task* server = sys.Start("kvserver", {"8090", "1", std::to_string(kConns)});
  ASSERT_NE(server, nullptr);
  Cycles worst = 0;
  int rc = RunInOs(sys, "warm-rto", [&worst](AppEnv& env) -> int {
    for (int i = 0; i < kConns; ++i) {
      Cycles start = env.kernel->Now();
      std::string resp;
      if (KvRequest(env, 8090, "GET /k\r\n", &resp) != 0 ||
          resp.find("404") == std::string::npos) {
        return 1;
      }
      if (i >= kWarm) {
        worst = std::max(worst, env.kernel->Now() - start);
      }
    }
    return 0;
  });
  EXPECT_EQ(rc, 0);
  EXPECT_EQ(sys.WaitProgram(server), 0);
  EXPECT_GT(sys.kernel().net()->stats().tcp_retransmit, 0u);  // the link did drop
  EXPECT_LT(worst, kNetRtoInitial);
}

// --- RTT estimation ------------------------------------------------------------

TEST_F(NetTest, SlowLinkSizesTheRto) {
  // A 10 ms round trip, over 20x the default link's: the estimator sizes the RTO
  // above it, so nothing is sent twice. A fixed RTO near the fast link's
  // round trip, or one without the G term, retransmits here.
  constexpr int kConns = 30;
  Task* server = sys_.Start("kvserver", {"8091", "1", std::to_string(kConns)});
  ASSERT_NE(server, nullptr);
  std::string netstat;
  int rc = RunInOs(sys_, "slow-rtt", [&netstat](AppEnv& env) -> int {
    if (NetstatCommand(env, "latency_us 5000") != 0) {
      return 1;
    }
    for (int i = 0; i < kConns; ++i) {
      std::string resp;
      if (KvRequest(env, 8091, "GET /k\r\n", &resp) != 0 ||
          resp.find("404") == std::string::npos) {
        return 2;
      }
    }
    netstat = ReadNetstat(env);
    return 0;
  });
  EXPECT_EQ(rc, 0);
  EXPECT_EQ(sys_.WaitProgram(server), 0);
  EXPECT_EQ(sys_.kernel().net()->stats().tcp_retransmit, 0u);
  long long srtt = RttField(netstat, "srtt_us");
  EXPECT_GE(srtt, 10000) << netstat;
  EXPECT_LE(srtt, 11000) << netstat;
}

TEST_F(NetTest, RetransmittedSegmentsAreNotTimed) {
  // Karn's rule: a SYN that had to be resent says nothing about the round
  // trip, since its SYN-ACK may answer either copy. Timing the first copy
  // would fold the ~17 ms of backoff into SRTT.
  Task* server = sys_.Start("kvserver", {"8092", "1", "5"});
  ASSERT_NE(server, nullptr);
  std::string warm;
  std::string after;
  int rc = RunInOs(sys_, "karn", [&warm, &after](AppEnv& env) -> int {
    for (int i = 0; i < 4; ++i) {
      std::string resp;
      if (KvRequest(env, 8092, "GET /k\r\n", &resp) != 0) {
        return 1;
      }
    }
    usleep_ms(env, 10);  // the last teardown settles on the clean link
    warm = ReadNetstat(env);
    std::int64_t fd = usocket(env, 0, /*flags=*/1);
    if (fd < 0 || NetstatCommand(env, "loss 1000000") != 0) {
      return 2;
    }
    std::uint32_t ip = env.kernel->config().net_ip;
    if (uconnect(env, static_cast<int>(fd), ip, 8092) != kErrAgain) {
      return 3;
    }
    usleep_ms(env, 10);  // the SYN and its first resends are all lost
    if (NetstatCommand(env, "loss 0") != 0) {
      return 4;
    }
    std::int64_t r = kErrAgain;
    for (int spin = 0; spin < 200 && r == kErrAgain; ++spin) {
      usleep_ms(env, 1);
      r = uconnect(env, static_cast<int>(fd), ip, 8092);
    }
    if (r != 0) {
      return 5;
    }
    after = ReadNetstat(env);
    uclose(env, static_cast<int>(fd));
    return 0;
  });
  EXPECT_EQ(rc, 0);
  EXPECT_EQ(sys_.WaitProgram(server), 0);
  EXPECT_GT(sys_.kernel().net()->stats().tcp_retransmit, 0u);
  long long before = RttField(warm, "srtt_us");
  EXPECT_GT(before, 0) << warm;
  EXPECT_LT(before, 1000) << warm;
  EXPECT_LT(RttField(after, "srtt_us"), 1000) << after;
}

// --- Observability + app -----------------------------------------------------

TEST_F(NetTest, ProcNetstatReportsAndControls) {
  int rc = RunInOs(sys_, "netstat", [](AppEnv& env) -> int {
    std::vector<std::uint8_t> text;
    if (uread_file(env, "/proc/netstat", &text) <= 0) {
      return 1;
    }
    std::string s(text.begin(), text.end());
    if (s.find("tcp") == std::string::npos || s.find("nic") == std::string::npos) {
      return 2;
    }
    // The control plane accepts knob writes...
    std::int64_t fd = uopen(env, "/proc/netstat", kOWronly);
    if (fd < 0) {
      return 3;
    }
    if (uwrite(env, static_cast<int>(fd), "loss 1000", 9) < 0) {
      return 4;
    }
    // ...and rejects nonsense.
    if (uwrite(env, static_cast<int>(fd), "bogus 1", 7) >= 0) {
      return 5;
    }
    uclose(env, static_cast<int>(fd));
    return 0;
  });
  EXPECT_EQ(rc, 0);
}

TEST_F(NetTest, KvServerServesHttpRequests) {
  // Boot the in-kernel KV/HTTP server for exactly 3 connections, then run a
  // client against it: PUT, GET-hit, GET-miss.
  Task* server = sys_.Start("kvserver", {"8080", "2", "3"});
  ASSERT_NE(server, nullptr);
  int rc = RunInOs(sys_, "kv-client", [](AppEnv& env) -> int {
    std::string resp;
    if (KvRequest(env, 8080, "PUT /color blue\r\n", &resp) != 0 ||
        resp.find("200 OK") == std::string::npos) {
      return 1;
    }
    resp.clear();
    if (KvRequest(env, 8080, "GET /color\r\n", &resp) != 0 ||
        resp.find("200 OK") == std::string::npos || resp.find("blue") == std::string::npos) {
      return 2;
    }
    resp.clear();
    if (KvRequest(env, 8080, "GET /nope\r\n", &resp) != 0 || resp.find("404") == std::string::npos) {
      return 3;
    }
    return 0;
  });
  EXPECT_EQ(rc, 0);
  EXPECT_EQ(sys_.WaitProgram(server), 0);
}

}  // namespace
}  // namespace vos
