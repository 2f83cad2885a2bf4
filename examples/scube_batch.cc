// SCube batch runner: the headless counterpart of the wizard — the shape of
// the SoBigData cloud method of Fig. 4 (right): point it at the three input
// CSV files plus a config file, get scube.xlsx and cube.csv back.
//
// Run:
//   ./scube_batch --demo                      # writes sample inputs first
//   ./scube_batch individuals.csv groups.csv membership.csv [config.txt]
//
// The individuals CSV must have an integer `id` column; columns listed in
// --sa / defaults become segregation attributes, the rest context. This
// demo binary keeps schema wiring simple: `id` + any of
// {gender, age_bin, birthplace} as SA, everything else categorical CA.

#include <cstdio>
#include <cstring>
#include <string>

#include "cube/explorer.h"
#include "etl/loaders.h"
#include "scube/config.h"
#include "scube/pipeline.h"
#include "viz/report.h"
#include "viz/xlsx_writer.h"

using namespace scube;

namespace {

// Infers a schema from a CSV header: `id` is the key; known SA names map to
// segregation attributes; everything else is a categorical context.
relational::Schema InferSchema(const CsvDocument& doc, bool groups) {
  relational::Schema schema;
  for (const std::string& name : doc.header) {
    relational::AttributeSpec spec;
    spec.name = name;
    if (name == "id") {
      spec.type = relational::ColumnType::kInt64;
      spec.kind = relational::AttributeKind::kId;
    } else if (!groups && (name == "gender" || name == "age_bin" ||
                           name == "birthplace" || name == "sex")) {
      spec.type = relational::ColumnType::kCategorical;
      spec.kind = relational::AttributeKind::kSegregation;
    } else {
      spec.type = relational::ColumnType::kCategorical;
      spec.kind = relational::AttributeKind::kContext;
    }
    (void)schema.AddAttribute(spec);
  }
  return schema;
}

int WriteDemoInputs() {
  const char* individuals =
      "id,gender,age_bin,region\n"
      "1,F,18-38,north\n2,M,39-46,north\n3,F,18-38,south\n"
      "4,M,18-38,south\n5,F,39-46,north\n6,M,39-46,south\n"
      "7,F,18-38,north\n8,M,18-38,north\n9,F,39-46,south\n"
      "10,M,39-46,north\n11,F,18-38,south\n12,M,18-38,south\n";
  const char* groups =
      "id,sector\n100,education\n101,education\n102,construction\n"
      "103,construction\n104,trade\n";
  const char* membership =
      "individualID,groupID\n"
      "1,100\n3,100\n5,100\n7,100\n9,101\n11,101\n1,101\n3,101\n"
      "2,102\n4,102\n6,102\n8,103\n10,103\n12,103\n2,103\n4,103\n"
      "5,104\n6,104\n";
  if (!WriteStringToFile("individuals.csv", individuals).ok() ||
      !WriteStringToFile("groups.csv", groups).ok() ||
      !WriteStringToFile("membership.csv", membership).ok()) {
    std::fprintf(stderr, "cannot write demo inputs\n");
    return 1;
  }
  std::printf("wrote individuals.csv, groups.csv, membership.csv\n");
  return 0;
}

}  // namespace

int main(int argc, char** argv) {
  bool demo = false;
  for (int i = 1; i < argc; ++i) {
    if (std::strcmp(argv[i], "--demo") == 0) demo = true;
  }
  if (demo) {
    if (WriteDemoInputs() != 0) return 1;
  } else if (argc < 4) {
    std::fprintf(stderr,
                 "usage: %s individuals.csv groups.csv membership.csv "
                 "[config.txt]\n       %s --demo\n",
                 argv[0], argv[0]);
    return 2;
  }

  std::string ind_path = demo ? "individuals.csv" : argv[1];
  std::string grp_path = demo ? "groups.csv" : argv[2];
  std::string mem_path = demo ? "membership.csv" : argv[3];

  // The configuration is checked before any input loads.
  pipeline::PipelineConfig config;
  config.method = pipeline::ClusterMethod::kThreshold;
  config.threshold.min_weight = 2.0;
  config.cube.min_support = 1;
  config.cube.mode = fpm::MineMode::kAll;
  config.cube.max_sa_items = 2;
  config.cube.max_ca_items = 1;
  if (!demo && argc >= 5) {
    auto text = ReadFileToString(argv[4]);
    if (!text.ok()) {
      std::fprintf(stderr, "%s\n", text.status().ToString().c_str());
      return 1;
    }
    auto parsed = pipeline::ParsePipelineConfig(text.value());
    if (!parsed.ok()) {
      std::fprintf(stderr, "config: %s\n",
                   parsed.status().ToString().c_str());
      return 1;
    }
    config = parsed.value();
  }

  CsvReader reader;
  auto ind_doc = reader.ParseFile(ind_path);
  auto grp_doc = reader.ParseFile(grp_path);
  auto mem_doc = reader.ParseFile(mem_path);
  for (const auto* doc : {&ind_doc, &grp_doc, &mem_doc}) {
    if (!doc->ok()) {
      std::fprintf(stderr, "%s\n", doc->status().ToString().c_str());
      return 1;
    }
  }

  auto inputs = etl::LoadInputsFromCsv(
      ind_doc.value(), InferSchema(ind_doc.value(), false), grp_doc.value(),
      InferSchema(grp_doc.value(), true), mem_doc.value());
  if (!inputs.ok()) {
    std::fprintf(stderr, "loading inputs: %s\n",
                 inputs.status().ToString().c_str());
    return 1;
  }
  std::printf("loaded %zu individuals, %zu groups, %zu memberships\n",
              inputs->individuals.NumRows(), inputs->groups.NumRows(),
              inputs->membership.NumMemberships());

  std::printf("\neffective configuration:\n%s\n",
              pipeline::PipelineConfigToString(config).c_str());

  auto result = pipeline::RunPipeline(inputs.value(), config);
  if (!result.ok()) {
    std::fprintf(stderr, "pipeline: %s\n",
                 result.status().ToString().c_str());
    return 1;
  }
  std::printf("cube: %zu cells (%zu defined) over %u units\n\n",
              result->cube.NumCells(), result->cube.NumDefinedCells(),
              result->clustering.num_clusters);

  cube::CubeView view = std::move(result->cube).Seal();
  cube::ExplorerOptions explore;
  explore.min_context_size = 2;
  explore.min_minority_size = 1;
  std::printf("%s\n",
              viz::RenderTopContexts(view,
                                     indexes::IndexKind::kDissimilarity, 8,
                                     explore)
                  .c_str());

  Status xlsx = viz::WriteCubeXlsx(view, "scube.xlsx");
  Status csv = WriteStringToFile("cube.csv", view.ToCsv());
  std::printf("scube.xlsx: %s\ncube.csv: %s\n",
              xlsx.ok() ? "written" : xlsx.ToString().c_str(),
              csv.ok() ? "written" : csv.ToString().c_str());
  return 0;
}
