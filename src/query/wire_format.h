// The shard wire format: how a shard scubed streams one answer to the
// scatter-gather router (POST /query?stream=1&format=wire).
//
// Line-oriented, escaped TSV, one event per line:
//
//   H \t version \t verb \t by \t has_value \t has_aux \t has_aux2
//     \t has_tag \t aux_name \t aux2_name \t tag_name
//   R \t skey-hex \t sa \t ca \t t \t m \t units \t defined
//     \t idx0..idx5 \t value \t aux \t aux2 \t tag
//   T \t cells_scanned \t next_cursor
//   S \t code \t message \t cache_hit \t rows
//
// H's version is the sealed cube version the shard resolved for this
// answer (ResultHeader::cube_version). It arrives before any row, so the
// router checks that every shard answers from the same version before it
// emits anything.
//
// Every double travels as the hex of its IEEE-754 bit pattern, so the
// router re-renders rows through the very same JsonWriter/CsvWriter a
// single-node server uses and the output is byte-identical — no decimal
// round-trip anywhere. The skey column is the row's order-preserving
// merge key (query/merge_key.h), hex-encoded; it is what the router's
// k-way merge compares. Free-text fields escape \, tab, CR and LF.
//
// H/R/T are written by WireWriter (a ResultWriter like Json/CsvWriter);
// the final S line is appended by the HTTP handler once the execution
// outcome (status, cache_hit) is known. Errors caught before Begin never
// enter the stream: they are plain buffered HTTP errors.

#ifndef SCUBE_QUERY_WIRE_FORMAT_H_
#define SCUBE_QUERY_WIRE_FORMAT_H_

#include <cstdint>
#include <string>
#include <string_view>

#include "common/result.h"
#include "common/status.h"
#include "query/query_result.h"
#include "query/row_sink.h"

namespace scube {
namespace query {

/// \brief Renders the wire stream's H/R/T lines (the shard side).
class WireWriter : public ResultWriter {
 public:
  using ResultWriter::ResultWriter;

  bool Begin(const ResultHeader& header) override;
  bool Row(const ResultRow& row) override;
  void Finish(const ResultTrailer& trailer) override;
};

/// The closing S line (status, cache_hit, row count); appended by the
/// handler after execution, newline included.
std::string WireStatusLine(StatusCode code, const std::string& message,
                           bool cache_hit, uint64_t rows);

/// \brief One parsed wire line (the router side).
struct WireEvent {
  enum class Kind { kHeader, kRow, kTrailer, kStatus };
  Kind kind = Kind::kHeader;

  ResultHeader header;  ///< kHeader (cube_version included)
  ResultRow row;        ///< kRow (skey hex-decoded back to bytes)

  // kTrailer
  uint64_t cells_scanned = 0;
  std::string next_cursor;

  // kStatus
  StatusCode code = StatusCode::kOk;
  std::string message;
  bool cache_hit = false;
  uint64_t rows = 0;
};

/// Parses one wire line (without its trailing newline). ParseError when
/// the line is not a well-formed H/R/T/S event.
Result<WireEvent> ParseWireLine(std::string_view line);

/// Escapes a free-text field for one TSV cell (\, tab, CR, LF).
void AppendWireEscaped(std::string_view text, std::string* out);

/// Hex of a double's IEEE-754 bit pattern ("3ff0000000000000").
std::string WireDouble(double v);

}  // namespace query
}  // namespace scube

#endif  // SCUBE_QUERY_WIRE_FORMAT_H_
