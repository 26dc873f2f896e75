// Lost device: localize a static, obstructed target from recorded traces.
//
// The scenario the paper motivates: a phone lost somewhere in a building,
// transmitting a short burst. The target sits inside a walled room of the
// high-NLoS testbed, so most APs have no line of sight. This example also
// exercises the offline trace path: each AP's capture is written to a
// csitool-style binary trace file, read back, and only then processed —
// exactly the "APs export CSI to a central server" flow of Fig. 1.
//
//   ./lost_device [target_x target_y] [seed]
#include <cstdio>
#include <cstdlib>
#include <filesystem>

#include "common/angles.hpp"
#include "csi/trace.hpp"
#include "testbed/experiment.hpp"

int main(int argc, char** argv) {
  using namespace spotfi;

  Vec2 target{2.5, 7.0};  // inside the left room
  std::uint64_t seed = 1;
  if (argc >= 3) {
    target.x = std::atof(argv[1]);
    target.y = std::atof(argv[2]);
  }
  if (argc >= 4) seed = static_cast<std::uint64_t>(std::atoll(argv[3]));

  const LinkConfig link = LinkConfig::intel5300_40mhz();
  ExperimentConfig config;
  config.packets_per_group = 20;
  const ExperimentRunner runner(link, high_nlos_deployment(), config);
  const auto& deployment = runner.deployment();

  std::printf("lost device scenario — high-NLoS deployment, target "
              "(%.1f, %.1f), %zu LoS APs of %zu\n",
              target.x, target.y, count_los_aps(deployment, target),
              deployment.aps.size());

  // Capture at every AP and export to trace files.
  Rng rng(seed);
  const auto captures = runner.simulate_captures(target, rng);
  const auto trace_dir =
      std::filesystem::temp_directory_path() / "spotfi_lost_device";
  std::filesystem::create_directories(trace_dir);
  std::vector<std::string> trace_files;
  for (std::size_t a = 0; a < captures.size(); ++a) {
    const auto path = trace_dir / ("ap" + std::to_string(a) + ".dat");
    write_trace(path.string(), link, captures[a].packets);
    trace_files.push_back(path.string());
  }
  std::printf("wrote %zu trace files to %s\n", trace_files.size(),
              trace_dir.string().c_str());

  // Server side: read the traces back and localize.
  std::vector<ApCapture> from_disk;
  for (std::size_t a = 0; a < trace_files.size(); ++a) {
    const Trace trace = read_trace(trace_files[a]);
    ApCapture capture;
    capture.pose = deployment.aps[a];
    capture.packets = trace.packets;
    from_disk.push_back(std::move(capture));
  }

  // The figures' server configuration: Algorithm 2 without leave-one-out
  // outlier-AP rejection, searching the deployment's area.
  const SpotFiServer server(link, runner.config().server);
  const auto result = server.try_localize(from_disk, rng);
  if (!result) {
    std::fprintf(stderr, "no fix: %s\n", result.error().reason.c_str());
    return 1;
  }
  const LocalizationRound& round = *result;

  std::printf("\n%-4s %-12s %-6s %-12s %-12s %-10s\n", "AP", "position",
              "LoS", "true AoA", "picked AoA", "likelihood");
  const auto truth = runner.ground_truth(target);
  for (std::size_t a = 0; a < round.ap_results.size(); ++a) {
    const auto& obs = round.ap_results[a].observation;
    std::printf("%-4zu (%5.1f,%4.1f) %-6s %9.1f deg %9.1f deg %10.3g\n", a,
                obs.pose.position.x, obs.pose.position.y,
                truth[a].line_of_sight ? "yes" : "no",
                rad_to_deg(truth[a].direct_aoa_rad),
                rad_to_deg(obs.direct_aoa_rad), obs.likelihood);
  }
  const Vec2 est = round.location.position;
  std::printf("\ndevice found near (%.2f, %.2f); true location "
              "(%.2f, %.2f); error %.2f m\n",
              est.x, est.y, target.x, target.y, distance(est, target));
  return 0;
}
