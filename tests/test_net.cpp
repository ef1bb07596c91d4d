#include <gtest/gtest.h>

#include "net/link.hpp"
#include "net/payload.hpp"
#include "util/rng.hpp"
#include "util/stats.hpp"

namespace net = beesim::net;
namespace u = beesim::util;

// ------------------------------------------------------------------ Payload

TEST(Payload, AudioSampleSizeMatchesPcmMath) {
  const auto p = net::catalog::audio_sample(10.0, 22050.0);
  EXPECT_DOUBLE_EQ(p.size, 10.0 * 22050.0 * 2.0);  // 441 kB
}

TEST(Payload, ImageSizeIsJpegScale) {
  const auto p = net::catalog::entrance_image(800, 600);
  // 0.25 bit/pixel on 480k pixels = 15 kB.
  EXPECT_DOUBLE_EQ(p.size, 0.25 * 800 * 600 / 8.0);
}

TEST(Payload, RoutineUploadContainsAllProducts) {
  const auto products = net::catalog::routine_upload();
  // 3 audio + 5 images + 1 sensor record.
  EXPECT_EQ(products.size(), 9u);
  int audio = 0;
  int image = 0;
  for (const auto& p : products) {
    if (p.name == "audio_10s") ++audio;
    if (p.name == "image_800x600") ++image;
  }
  EXPECT_EQ(audio, 3);
  EXPECT_EQ(image, 5);
  // Dominated by audio: ~1.3 MB + 75 kB + 0.5 kB.
  EXPECT_NEAR(net::total_size(products), 3 * 441000 + 5 * 15000 + 512, 5000);
}

TEST(Payload, TotalSizeSums) {
  std::vector<net::Payload> v{{"a", 10.0}, {"b", 20.0}};
  EXPECT_DOUBLE_EQ(net::total_size(v), 30.0);
}

// --------------------------------------------------------------------- Link

TEST(Link, ExpectedTimeIsDeterministic) {
  net::Link link;
  const double t = link.expected_transfer_time(1e6);  // 8 Mbit at 8 Mbps
  EXPECT_NEAR(t, link.params().setup_time + link.params().latency + 1.0,
              1e-9);
}

TEST(Link, SampledTimesVaryButStayAboveFloor) {
  net::Link link;
  u::Rng rng(5);
  const double bytes = 1e6;
  const double fastest = link.params().setup_time + link.params().latency +
                         8.0 / 50.0;  // would need 50 Mbps; impossible here
  u::RunningStats stats;
  for (int i = 0; i < 500; ++i) {
    const double t = link.transfer_time(bytes, rng);
    EXPECT_GT(t, fastest);
    stats.add(t);
  }
  EXPECT_GT(stats.stddev(), 0.0);
  EXPECT_NEAR(stats.mean(), link.expected_transfer_time(bytes), 0.3);
}

TEST(Link, ThroughputFloorBoundsWorstCase) {
  net::Link::Params p;
  p.throughput_mean_mbps = 1.0;
  p.throughput_stddev_mbps = 10.0;  // wild variance
  p.throughput_floor_mbps = 0.5;
  net::Link link(p);
  u::Rng rng(6);
  const double worst = p.setup_time + p.latency + 8.0 / 0.5;  // 1 MB at floor
  for (int i = 0; i < 500; ++i)
    EXPECT_LE(link.transfer_time(1e6, rng), worst + 1e-9);
}

TEST(Link, ZeroBytesCostsOnlySetup) {
  net::Link link;
  u::Rng rng(7);
  EXPECT_DOUBLE_EQ(link.transfer_time(0.0, rng),
                   link.params().setup_time + link.params().latency);
}

TEST(Link, RejectsNegativePayloadAndBadParams) {
  net::Link link;
  u::Rng rng(8);
  EXPECT_THROW(link.transfer_time(-1.0, rng), std::invalid_argument);
  EXPECT_THROW(link.expected_transfer_time(-1.0), std::invalid_argument);
  net::Link::Params p;
  p.throughput_mean_mbps = 0.0;
  EXPECT_THROW(net::Link{p}, std::invalid_argument);
}

TEST(Link, PresetsAreOrdered) {
  // The far link must be slower in expectation than the rooftop link.
  const double bytes = 1e6;
  EXPECT_GT(net::Link::wifi_far().expected_transfer_time(bytes),
            net::Link::wifi_80211n().expected_transfer_time(bytes));
}
