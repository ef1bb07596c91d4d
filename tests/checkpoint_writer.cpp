// Saves the crash-test campaign (tests/crash_campaign.hpp) to the path in
// argv[1] over and over until it is killed. It writes one byte to stdout
// before the first save, so the test that spawns it knows saving has
// begun before it sends SIGKILL.
//
// Usage: checkpoint_writer <path>

#include <cstdio>

#include "core/checkpoint.hpp"
#include "crash_campaign.hpp"

int main(int argc, char** argv) {
  if (argc != 2) {
    std::fprintf(stderr, "usage: checkpoint_writer <path>\n");
    return 2;
  }
  const beesim::core::FleetColumns columns = beesim::crash::campaign();
  std::fputc('s', stdout);
  std::fflush(stdout);
  for (;;)
    beesim::core::save_checkpoint(argv[1], columns,
                                  beesim::crash::campaign_hash());
}
