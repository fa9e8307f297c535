#include "io/config_json.h"

#include <charconv>
#include <cmath>
#include <cstdint>
#include <fstream>
#include <limits>
#include <span>
#include <type_traits>
#include <utility>

#include "io/config_flags.h"
#include "obs/json.h"
#include "util/error.h"

namespace desmine::io {
namespace {

using obs::JsonValue;

/// Largest config file load_run_config reads; a larger one is refused.
constexpr std::size_t kMaxConfigBytes = std::size_t{1} << 20;

/// What values a knob accepts.
enum class Kind {
  kInt,     ///< whole number >= 0
  kPosInt,  ///< whole number >= 1
  kPort,    ///< whole number in [0, 65535]; 0 = off
  kNum,     ///< any finite number
  kNonNeg,  ///< number >= 0
  kPos,     ///< number > 0
  kFrac,    ///< number in [0, 1]
  kBool,
  kStr,
  kName,  ///< one of Knob::names; an enum field holds the name's index
};

/// One row of the knob table, less the field it binds.
struct Knob {
  const char* key;   ///< dotted path in the JSON document
  const char* flag;  ///< tool flag without "--", or nullptr
  Kind kind;
  std::span<const char* const> names{};  ///< Kind::kName only
};

constexpr const char* kAttentionNames[] = {"general", "dot"};
static_assert(static_cast<int>(nn::AttentionScore::kGeneral) == 0 &&
              static_cast<int>(nn::AttentionScore::kDot) == 1);
constexpr const char* kKernelNames[] = {"auto", "scalar", "avx2"};

/// The knob table: one row per RunConfig setting, in document order.
/// `Config` is RunConfig or const RunConfig; `row(knob, field)` is called
/// once per row.
template <class Config, class Row>
void for_each_knob(Config& c, Row&& row) {
  using enum Kind;
  auto& window = c.framework.window;
  row({"window.word_length", "word", kPosInt}, window.word_length);
  row({"window.word_stride", "word-stride", kPosInt}, window.word_stride);
  row({"window.sentence_length", "sentence", kPosInt}, window.sentence_length);
  row({"window.sentence_stride", "sentence-stride", kPosInt}, window.sentence_stride);

  auto& miner = c.framework.miner;
  row({"miner.threads", "threads", kInt}, miner.threads);
  row({"miner.seed", "seed", kInt}, miner.seed);
  row({"miner.pair_timeout_s", "pair-timeout-s", kNonNeg}, miner.pair_timeout_s);
  row({"miner.checkpoint_path", "checkpoint", kStr}, miner.checkpoint_path);
  row({"miner.resume", "resume", kBool}, miner.resume);
  auto& retry = miner.retry;
  row({"miner.retry.max_retries", "max-retries", kInt}, retry.max_retries);
  row({"miner.retry.base_delay_ms", nullptr, kNonNeg}, retry.base_delay_ms);
  row({"miner.retry.multiplier", nullptr, kNum}, retry.multiplier);
  row({"miner.retry.max_delay_ms", nullptr, kNonNeg}, retry.max_delay_ms);
  row({"miner.retry.jitter", nullptr, kFrac}, retry.jitter);
  auto& model = miner.translation.model;
  row({"miner.model.embedding_dim", "embedding", kPosInt}, model.embedding_dim);
  row({"miner.model.hidden_dim", "hidden", kPosInt}, model.hidden_dim);
  row({"miner.model.num_layers", "layers", kPosInt}, model.num_layers);
  row({"miner.model.dropout", "dropout", kFrac}, model.dropout);
  row({"miner.model.init_scale", nullptr, kPos}, model.init_scale);
  row({"miner.model.max_decode_length", nullptr, kPosInt}, model.max_decode_length);
  row({"miner.model.attention", nullptr, kName, kAttentionNames}, model.attention);
  auto& trainer = miner.translation.trainer;
  row({"miner.trainer.steps", "steps", kPosInt}, trainer.steps);
  row({"miner.trainer.batch_size", "batch", kPosInt}, trainer.batch_size);
  row({"miner.trainer.lr", "lr", kPos}, trainer.lr);
  row({"miner.trainer.clip_norm", nullptr, kNonNeg}, trainer.clip_norm);
  row({"miner.trainer.lr_decay_start", nullptr, kInt}, trainer.lr_decay_start);
  row({"miner.trainer.lr_decay_every", nullptr, kInt}, trainer.lr_decay_every);
  row({"miner.trainer.eval_every", nullptr, kInt}, trainer.eval_every);
  row({"miner.trainer.patience", nullptr, kPosInt}, trainer.patience);
  row({"miner.trainer.divergence_factor", nullptr, kNonNeg}, trainer.divergence_factor);
  row({"miner.bleu.max_order", nullptr, kPosInt}, miner.translation.bleu.max_order);
  row({"miner.bleu.smooth", nullptr, kBool}, miner.translation.bleu.smooth);

  auto& detector = c.framework.detector;
  row({"detector.valid_lo", "lo", kNum}, detector.valid_lo);
  row({"detector.valid_hi", "hi", kNum}, detector.valid_hi);
  row({"detector.tolerance", "tolerance", kNonNeg}, detector.tolerance);
  row({"detector.min_coverage", "min-coverage", kFrac}, detector.min_coverage);
  row({"detector.threads", nullptr, kInt}, detector.threads);
  row({"detector.bleu.max_order", nullptr, kPosInt}, detector.bleu.max_order);
  row({"detector.bleu.smooth", nullptr, kBool}, detector.bleu.smooth);

  auto& health = c.health;
  row({"health.drop_after_missing", "health-drop-after", kPosInt}, health.drop_after_missing);
  row({"health.stale_after", "health-stale-after", kInt}, health.stale_after);
  row({"health.max_unk_rate", "health-unk-rate", kFrac}, health.max_unk_rate);
  row({"health.unk_window", "health-unk-window", kPosInt}, health.unk_window);
  row({"health.min_unk_samples", nullptr, kPosInt}, health.min_unk_samples);
  row({"health.readmit_after", "health-readmit-after", kPosInt}, health.readmit_after);

  row({"tensor.kernels", "kernels", kName, kKernelNames}, c.kernels);

  auto& serve = c.serve;
  row({"serve.workers", "workers", kInt}, serve.workers);
  row({"serve.max_batch", "max-batch", kPosInt}, serve.max_batch);
  row({"serve.decode_cache", "decode-cache", kInt}, serve.decode_cache);
  row({"serve.max_pending_windows", "max-pending", kPosInt}, serve.limits.max_pending_windows);
  row({"serve.reject_when_full", "reject-when-full", kBool}, serve.limits.reject_when_full);
  row({"serve.max_consecutive_shed", "max-consecutive-shed", kPosInt}, serve.limits.max_consecutive_shed);
  row({"serve.max_global_pending", "max-global-pending", kInt}, serve.max_global_pending);
  row({"serve.max_queue_delay_ms", "max-queue-delay-ms", kNonNeg}, serve.max_queue_delay_ms);
  row({"serve.circuit_open_after", "circuit-open-after", kInt}, serve.circuit_open_after);
  row({"serve.circuit_probe_after", "circuit-probe-after", kPosInt}, serve.circuit_probe_after);
  row({"serve.telemetry_port", "telemetry-port", kPort}, serve.telemetry_port);
  row({"serve.resident_bytes", "resident-bytes", kInt}, serve.resident_bytes);
  row({"serve.resident_edges", "resident-edges", kInt}, serve.resident_edges);
  row({"serve.slow_window_ms", "slow-window-ms", kNonNeg}, serve.slow_window_ms);
  row({"serve.sliding_window_s", "sliding-window-s", kPos}, serve.sliding_window_s);
  row({"serve.sliding_epochs", "sliding-epochs", kPosInt}, serve.sliding_epochs);

  auto& drift = c.lifecycle.drift;
  row({"lifecycle.drift.ewma_alpha", nullptr, kFrac}, drift.ewma_alpha);
  row({"lifecycle.drift.min_observations", nullptr, kPosInt}, drift.min_observations);
  row({"lifecycle.drift.hysteresis", nullptr, kPosInt}, drift.hysteresis);
  row({"lifecycle.drift.drifting_drop", nullptr, kNonNeg}, drift.drifting_drop);
  row({"lifecycle.drift.drifted_drop", nullptr, kNonNeg}, drift.drifted_drop);
  row({"lifecycle.drift.break_rate", nullptr, kFrac}, drift.break_rate);
  row({"lifecycle.drift.max_unk_rate", nullptr, kFrac}, drift.max_unk_rate);
  auto& retrain = c.lifecycle.retrain;
  row({"lifecycle.retrain.lr_factor", nullptr, kPos}, retrain.lr_factor);
  row({"lifecycle.retrain.steps", nullptr, kInt}, retrain.steps);
  row({"lifecycle.retrain.journal_path", nullptr, kStr}, retrain.journal_path);
  row({"lifecycle.retrain.warm_start_journal", nullptr, kStr}, retrain.warm_start_journal);
  auto& shadow = c.lifecycle.shadow;
  row({"lifecycle.shadow.sample_rate", nullptr, kPos}, shadow.sample_rate);
  row({"lifecycle.shadow.min_windows", nullptr, kPosInt}, shadow.min_windows);
  row({"lifecycle.shadow.alert_threshold", nullptr, kFrac}, shadow.alert_threshold);
  row({"lifecycle.shadow.max_alert_rate", nullptr, kFrac}, shadow.max_alert_rate);
  row({"lifecycle.shadow.min_agreement", nullptr, kFrac}, shadow.min_agreement);
  row({"lifecycle.shadow.max_failures", nullptr, kInt}, shadow.max_failures);
}

/// Every knob's flag (or nullptr) by dotted key.
const std::map<std::string, const char*, std::less<>>& flag_of() {
  static const auto index = [] {
    std::map<std::string, const char*, std::less<>> flags;
    const RunConfig defaults;
    for_each_knob(defaults, [&](const Knob& knob, const auto&) {
      flags.emplace(knob.key, knob.flag);
    });
    return flags;
  }();
  return index;
}

/// "key 'detector.valid_lo' (--lo)": how a cross-field error names a knob.
std::string knob_label(std::string_view key) {
  const char* flag = flag_of().find(key)->second;
  return "key '" + std::string(key) + "'" +
         (flag ? std::string(" (--") + flag + ")" : "");
}

/// Check `v` against the knob's kind and store it in `field`. `label` opens
/// every error message. Flag text reaches here as the JsonValue a config
/// file would hold (see flag_value), so flags and keys share every check.
template <class T>
void read_value(const Knob& knob, const JsonValue& v, const std::string& label,
                T& field) {
  const auto must = [&](bool ok, const std::string& what) {
    if (!ok) throw PreconditionError(label + " must " + what);
  };
  if constexpr (std::is_same_v<T, bool>) {
    must(v.is_bool(), "be a boolean");
    field = v.boolean;
  } else if constexpr (std::is_same_v<T, std::string> || std::is_enum_v<T>) {
    must(v.is_string(), "be a string");
    std::size_t i = 0;
    std::string names;
    for (; i < knob.names.size() && v.string != knob.names[i]; ++i) {
      names += (i == 0 ? "\"" : ", \"") + std::string(knob.names[i]) + "\"";
    }
    must(knob.kind == Kind::kStr || i < knob.names.size(),
         "be one of " + names);
    if constexpr (std::is_enum_v<T>) {
      field = static_cast<T>(i);
    } else {
      field = v.string;
    }
  } else {
    must(v.is_number() && std::isfinite(v.number), "be a number");
    const double d = v.number;
    const char* first = v.string.data();
    const char* last = first + v.string.size();
    if constexpr (std::is_integral_v<T>) {
      // Digits are read exactly; other spellings (1e3, 5.0) through the
      // double, which holds every whole number up to 2^53.
      std::uint64_t n = 0;
      const auto [end, ec] = std::from_chars(first, last, n);
      if (ec != std::errc() || end != last) {
        must(d >= 0.0 && d == std::floor(d) && d <= 9007199254740992.0,
             "be a non-negative integer");
        n = static_cast<std::uint64_t>(d);
      }
      must(knob.kind != Kind::kPosInt || n > 0, "be > 0");
      must(knob.kind != Kind::kPort || n <= 65535, "lie in [0, 65535]");
      must(n <= std::numeric_limits<T>::max(), "fit its field");
      field = static_cast<T>(n);
    } else {
      must(knob.kind != Kind::kNonNeg || d >= 0.0, "be >= 0");
      must(knob.kind != Kind::kPos || d > 0.0, "be > 0");
      must(knob.kind != Kind::kFrac || (d >= 0.0 && d <= 1.0),
           "lie in [0, 1]");
      if constexpr (std::is_same_v<T, float>) {
        // Straight from the token: the exact inverse of the shortest form
        // run_config_to_json prints, with no rounding through double.
        const auto [end, ec] = std::from_chars(first, last, field);
        must(ec == std::errc() && end == last, "fit a float");
      } else {
        field = d;
      }
    }
  }
}

/// The JsonValue a config file would hold for the flag text `text`: a
/// number or boolean when the text spells one for a knob of that kind,
/// else a string (which the kind check then rejects).
JsonValue flag_value(const Knob& knob, const std::string& text) {
  JsonValue v;
  v.type = JsonValue::Type::kString;
  v.string = text;
  if (knob.kind == Kind::kBool) {
    if (text == "true" || text == "1" || text == "false" || text == "0") {
      v.type = JsonValue::Type::kBool;
      v.boolean = text == "true" || text == "1";
    }
  } else if (knob.kind != Kind::kStr && knob.kind != Kind::kName) {
    const char* last = text.data() + text.size();
    const auto [end, ec] = std::from_chars(text.data(), last, v.number);
    if (ec == std::errc() && end == last) v.type = JsonValue::Type::kNumber;
  }
  return v;
}

/// Collect every knob value in `obj` (at `prefix`) by dotted key; unknown
/// keys and non-object sections are errors naming the dotted path.
void collect(const JsonValue& obj, const std::string& prefix,
             std::map<std::string, const JsonValue*>* leaves) {
  for (const auto& [key, value] : obj.object) {
    const std::string path = prefix.empty() ? key : prefix + "." + key;
    // A section is a proper prefix of some knob key: the first key after
    // "path." in order starts with it.
    const auto next = flag_of().lower_bound(path + ".");
    if (flag_of().count(path) != 0) {
      (*leaves)[path] = &value;
    } else if (next == flag_of().end() ||
               next->first.rfind(path + ".", 0) != 0) {
      throw PreconditionError("config: unknown key '" + path + "'");
    } else if (!value.is_object()) {
      throw PreconditionError("config: key '" + path + "' must be an object");
    } else {
      collect(value, path, leaves);
    }
  }
}

/// Overlay the knobs present in the JSON document `text` onto `config`.
void parse_into(std::string_view text, RunConfig& config) {
  const JsonValue doc = obs::parse_json(text);
  if (!doc.is_object()) {
    throw PreconditionError("config: document must be a JSON object");
  }
  std::map<std::string, const JsonValue*> leaves;
  collect(doc, "", &leaves);
  for_each_knob(config, [&](const Knob& knob, auto& field) {
    const auto it = leaves.find(knob.key);
    if (it == leaves.end()) return;
    read_value(knob, *it->second, "config: key '" + it->first + "'", field);
  });
}

/// The checks that span fields or need a bound no kind expresses, run once
/// on the merged config; then mirror the sections ServeConfig copies.
void finish(RunConfig& c) {
  const auto require = [](bool ok, const char* key, const std::string& what) {
    if (!ok) throw PreconditionError("config: " + knob_label(key) + what);
  };
  const auto& d = c.framework.detector;
  const auto& drift = c.lifecycle.drift;
  require(d.valid_lo <= d.valid_hi, "detector.valid_lo",
          " must be <= " + knob_label("detector.valid_hi"));
  require(drift.drifting_drop <= drift.drifted_drop,
          "lifecycle.drift.drifting_drop",
          " must be <= " + knob_label("lifecycle.drift.drifted_drop"));
  require(c.framework.miner.translation.model.dropout < 1.0f,
          "miner.model.dropout", " must lie in [0, 1)");
  require(drift.ewma_alpha > 0.0, "lifecycle.drift.ewma_alpha",
          " must lie in (0, 1]");
  require(c.framework.miner.retry.multiplier >= 1.0, "miner.retry.multiplier",
          " must be >= 1");
  c.serve.detector = c.framework.detector;
  c.serve.shadow = c.lifecycle.shadow;
}

/// Pretty-print the emitter's tree: objects, booleans, strings, and
/// numbers as their stored token.
void dump(const JsonValue& v, std::string& out, int depth) {
  if (v.is_bool()) {
    out += v.boolean ? "true" : "false";
  } else if (v.is_number()) {
    out += v.string;
  } else if (v.is_string()) {
    out += obs::JsonWriter::quote(v.string);
  } else {
    const std::string indent(static_cast<std::size_t>(depth) * 2, ' ');
    out += "{\n";
    for (std::size_t i = 0; i < v.object.size(); ++i) {
      out += indent + "  " + obs::JsonWriter::quote(v.object[i].first) + ": ";
      dump(v.object[i].second, out, depth + 1);
      out += i + 1 < v.object.size() ? ",\n" : "\n";
    }
    out += indent + '}';
  }
}

/// The JsonValue `field` is dumped as.
template <class T>
JsonValue to_json(const Knob& knob, const T& field) {
  JsonValue v;
  v.type = JsonValue::Type::kString;
  if constexpr (std::is_same_v<T, bool>) {
    v.type = JsonValue::Type::kBool;
    v.boolean = field;
  } else if constexpr (std::is_same_v<T, std::string>) {
    v.string = field;
  } else if constexpr (std::is_enum_v<T>) {
    v.string = knob.names[static_cast<std::size_t>(field)];
  } else {  // integers exactly, floats and doubles shortest round-trip
    char buf[32];
    v.type = JsonValue::Type::kNumber;
    v.string.assign(buf, std::to_chars(buf, buf + sizeof(buf), field).ptr);
  }
  return v;
}

}  // namespace

std::string run_config_to_json(const RunConfig& config) {
  JsonValue doc;
  doc.type = JsonValue::Type::kObject;
  for_each_knob(config, [&](const Knob& knob, const auto& field) {
    // Descend to the knob's section, opening it at its first knob.
    JsonValue* obj = &doc;
    std::string_view key = knob.key;
    for (auto dot = key.find('.'); dot != key.npos; dot = key.find('.')) {
      const std::string_view section = key.substr(0, dot);
      if (obj->object.empty() || obj->object.back().first != section) {
        obj->object.emplace_back(std::string(section), JsonValue{});
        obj->object.back().second.type = JsonValue::Type::kObject;
      }
      obj = &obj->object.back().second;
      key.remove_prefix(dot + 1);
    }
    obj->object.emplace_back(std::string(key), to_json(knob, field));
  });
  std::string out;
  dump(doc, out, 0);
  out += '\n';
  return out;
}

RunConfig run_config_from_json(std::string_view text) {
  RunConfig config;
  parse_into(text, config);
  finish(config);
  return config;
}

RunConfig load_run_config(const std::string& path, const FlagValues& flags) {
  RunConfig config;
  if (!path.empty()) {
    std::ifstream in(path, std::ios::binary);
    if (!in) throw PreconditionError("config: cannot read '" + path + "'");
    std::string text(kMaxConfigBytes + 1, '\0');
    in.read(text.data(), static_cast<std::streamsize>(text.size()));
    text.resize(static_cast<std::size_t>(in.gcount()));
    if (text.size() > kMaxConfigBytes) {
      throw PreconditionError("config: '" + path + "' is larger than " +
                              std::to_string(kMaxConfigBytes) + " bytes");
    }
    // A bad value or malformed JSON is a usage error naming the file.
    const auto in_file = [&](const std::exception& e) {
      return PreconditionError(std::string(e.what()) + " (in '" + path + "')");
    };
    try {
      parse_into(text, config);
    } catch (const PreconditionError& e) {
      throw in_file(e);
    } catch (const RuntimeError& e) {
      throw in_file(e);
    }
  }
  for_each_knob(config, [&](const Knob& knob, auto& field) {
    const auto it = knob.flag ? flags.find(knob.flag) : flags.end();
    if (it == flags.end()) return;
    read_value(knob, flag_value(knob, it->second),
               "flag --" + it->first + "=" + it->second + " (key '" +
                   knob.key + "')",
               field);
  });
  finish(config);
  return config;
}

std::vector<KnobFlag> knob_flags(
    std::initializer_list<std::string_view> sections) {
  std::vector<KnobFlag> out;
  const RunConfig defaults;
  for_each_knob(defaults, [&](const Knob& knob, const auto& field) {
    const std::string_view key = knob.key;
    for (const std::string_view section : sections) {
      if (knob.flag && key.substr(0, key.find('.')) == section) {
        std::string value;
        dump(to_json(knob, field), value, 0);
        out.push_back({knob.flag, knob.kind == Kind::kBool, knob.key, value});
      }
    }
  });
  return out;
}

}  // namespace desmine::io
