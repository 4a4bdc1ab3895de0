// Deterministic string rendering shared by the metrics sinks and the
// bench reporter.
#pragma once

#include <string>
#include <string_view>

namespace erasmus {

/// Shortest round-trip decimal rendering of a double (std::to_chars), with
/// a trailing ".0" kept on integral values so the real-ness stays visible.
/// NaN renders as "null", infinities as +/-"1e999" (JSON-parseable as a
/// number overflow). Byte-deterministic across runs.
std::string format_double(double v);

/// Escapes `s` for embedding in a JSON string literal (quotes not added).
std::string json_escape(std::string_view s);

/// `s` as a complete JSON string literal: json_escape plus the quotes.
std::string json_quote(std::string_view s);

}  // namespace erasmus
