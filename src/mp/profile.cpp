#include "mp/profile.hpp"

#include <stdexcept>

namespace pdc::mp {

const char* to_string(ToolKind k) {
  switch (k) {
    case ToolKind::P4:
      return "p4";
    case ToolKind::Pvm:
      return "PVM";
    case ToolKind::Express:
      return "Express";
  }
  return "?";
}

const std::vector<ToolKind>& all_tools() {
  static const std::vector<ToolKind> kAll = {ToolKind::Express, ToolKind::P4, ToolKind::Pvm};
  return kAll;
}

namespace {

constexpr double kReferenceClockMhz = 33.0;

[[nodiscard]] sim::Duration scaled(double us_at_ref, double clock_mhz) {
  return sim::from_seconds(us_at_ref * 1e-6 * kReferenceClockMhz / clock_mhz);
}

/// Express's SUN port was its weakest; the Alpha and SP-1 (Cubix-era)
/// native ports were markedly better tuned. p4 and PVM were portable Unix
/// code with roughly uniform quality.
[[nodiscard]] double express_port_quality(host::PlatformId p) {
  switch (p) {
    case host::PlatformId::AlphaFddi:
    case host::PlatformId::Sp1Switch:
    case host::PlatformId::Sp1Ethernet:
      return 0.55;
    default:
      return 1.0;
  }
}

}  // namespace

ToolProfile tool_profile(ToolKind kind, host::PlatformId platform) {
  const auto& spec = host::platform_spec(platform);
  const double mhz = spec.cpu.clock_mhz;
  ToolProfile p;
  switch (kind) {
    case ToolKind::P4:
      p.send_fixed = scaled(300, mhz);
      p.recv_fixed = scaled(250, mhz);
      p.send_copies = 1.0;
      p.recv_copies = 0.6;
      p.blocking_send = true;
      p.collective_step = scaled(220, mhz);
      p.broadcast_algo = ToolProfile::BroadcastAlgo::BinomialTree;
      p.reduce_algo = ToolProfile::ReduceAlgo::GatherBroadcastTree;
      return p;

    case ToolKind::Pvm:
      p.send_fixed = scaled(380, mhz);  // pvm_initsend + pack dispatch
      p.recv_fixed = scaled(320, mhz);
      p.send_copies = 0.9;  // XDR encode
      p.recv_copies = 0.5;  // XDR decode degenerates to a copy (homogeneous cluster)
      p.via_daemon = true;
      p.daemon_fixed = scaled(900, mhz);
      p.daemon_copies = 0.5;  // Unix-domain IPC copy into pvmd
      p.daemon_fragment = 4096;
      p.daemon_per_fragment = scaled(800, mhz);
      p.daemon_duplex_penalty = 2.5;
      p.blocking_send = false;  // pvm_send returns once pvmd has the buffer
      p.collective_step = scaled(420, mhz);
      p.broadcast_algo = ToolProfile::BroadcastAlgo::SequentialFromRoot;  // pvm_mcast
      p.reduce_algo = ToolProfile::ReduceAlgo::Unsupported;
      return p;

    case ToolKind::Express: {
      const double q = express_port_quality(platform);
      p.send_fixed = scaled(480 * q, mhz);
      p.recv_fixed = scaled(360 * q, mhz);
      p.send_copies = 1.1;
      p.recv_copies = 1.1;
      p.recv_in_background = true;  // buffer layer drains the wire itself
      p.send_in_background = true;  // ... and packetises outbound buffers
      p.blocking_send = true;       // exsend returns once packetisation completes
      p.packet_bytes = 1024;
      p.per_packet_send = scaled(600 * q, mhz);
      p.per_packet_recv = scaled(600 * q, mhz);
      p.collective_step = scaled(300 * q, mhz);
      p.broadcast_algo = ToolProfile::BroadcastAlgo::SequentialFromRoot;
      p.reduce_algo = ToolProfile::ReduceAlgo::RecursiveDoubling;  // excombine
      return p;
    }
  }
  throw std::logic_error("tool_profile: unknown tool");
}

}  // namespace pdc::mp
