// EngineProfile serialization: BENCH_fleet.json embeds to_json() verbatim as
// `engine_profile.data`, and external tooling greps those keys — so the
// schema is pinned here. Adding a key is fine (extend the list); renaming or
// dropping one is a breaking change to the bench report.
#include "obs/profile.h"

#include <gtest/gtest.h>

#include <string>

namespace demuxabr::obs {
namespace {

EngineProfile sample_profile() {
  EngineProfile profile;
  profile.enabled = true;
  profile.drain = {1.5, 300};
  profile.register_phase = {0.25, 300};
  profile.admit = {0.125, 301};
  profile.heap_pops = 1000;
  profile.link_sync_checks = 400;
  profile.link_sync_refreshes = 400;
  return profile;
}

TEST(EngineProfileJson, SchemaKeysAreStable) {
  const std::string json = sample_profile().to_json();
  for (const char* key :
       {"\"enabled\"", "\"drain\"", "\"register\"", "\"admit\"", "\"wall_s\"",
        "\"calls\"", "\"heap_pops\"", "\"link_sync_checks\"",
        "\"link_sync_refreshes\""}) {
    EXPECT_NE(json.find(key), std::string::npos) << "missing key " << key;
  }
}

TEST(EngineProfileJson, ValuesRoundTrip) {
  const std::string json = sample_profile().to_json();
  EXPECT_NE(json.find("\"enabled\":true"), std::string::npos);
  EXPECT_NE(json.find("\"heap_pops\":1000"), std::string::npos);
  EXPECT_NE(json.find("\"link_sync_refreshes\":400"), std::string::npos);
  EXPECT_NE(json.find("\"drain\":{\"wall_s\":1.500000,\"calls\":300}"),
            std::string::npos);
}

TEST(EngineProfile, DerivedQuantities) {
  const EngineProfile profile = sample_profile();
  EXPECT_DOUBLE_EQ(profile.total_wall_s(), 1.875);
}

}  // namespace
}  // namespace demuxabr::obs
