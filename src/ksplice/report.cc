#include "ksplice/report.h"

#include "base/json.h"
#include "base/strings.h"

namespace ksplice {

void MatchStats::MergeFrom(const MatchStats& other) {
  sections_matched += other.sections_matched;
  candidates_tried += other.candidates_tried;
  run_bytes_matched += other.run_bytes_matched;
  nop_bytes_skipped += other.nop_bytes_skipped;
  reloc_sites_inverted += other.reloc_sites_inverted;
  symbols_recovered += other.symbols_recovered;
  ambiguity_deferrals += other.ambiguity_deferrals;
  fixpoint_passes += other.fixpoint_passes;
  pre_bytes_canonicalized += other.pre_bytes_canonicalized;
  run_bytes_canonicalized += other.run_bytes_canonicalized;
  revalidations += other.revalidations;
  extable_sections_matched += other.extable_sections_matched;
  bug_table_sections_matched += other.bug_table_sections_matched;
  date_time_sections_matched += other.date_time_sections_matched;
}

std::string MatchStats::ToJson() const {
  return ks::JsonObject()
      .Add("sections_matched", sections_matched)
      .Add("candidates_tried", candidates_tried)
      .Add("run_bytes_matched", run_bytes_matched)
      .Add("nop_bytes_skipped", nop_bytes_skipped)
      .Add("reloc_sites_inverted", reloc_sites_inverted)
      .Add("symbols_recovered", symbols_recovered)
      .Add("ambiguity_deferrals", ambiguity_deferrals)
      .Add("fixpoint_passes", fixpoint_passes)
      .Add("pre_bytes_canonicalized", pre_bytes_canonicalized)
      .Add("run_bytes_canonicalized", run_bytes_canonicalized)
      .Add("revalidations", revalidations)
      .Add("extable_sections_matched", extable_sections_matched)
      .Add("bug_table_sections_matched", bug_table_sections_matched)
      .Add("date_time_sections_matched", date_time_sections_matched).str();
}

std::string LintFinding::ToString() const {
  std::string where;
  if (!unit.empty() || !symbol.empty()) {
    where = unit;
    if (!symbol.empty()) {
      where += (where.empty() ? "" : ":") + symbol;
    }
    if (has_offset) {
      where += ks::StrPrintf("+0x%x", offset);
    }
    where += ": ";
  }
  std::string out = ks::StrPrintf("%s %s [%s] %s%s", rule.c_str(),
                                  LintSeverityName(severity), pass.c_str(),
                                  where.c_str(), message.c_str());
  if (!hint.empty()) {
    out += " (hint: " + hint + ")";
  }
  return out;
}

std::string LintFinding::ToJson() const {
  ks::JsonObject out;
  out.Add("rule", rule).Add("severity", LintSeverityName(severity))
      .Add("pass", pass).Add("unit", unit).Add("symbol", symbol);
  if (has_offset) {
    out.Add("offset", offset);
  }
  return out.Add("message", message).Add("hint", hint).str();
}

std::string LintReport::ToJson() const {
  size_t warnings_or_worse = CountAtLeast(LintSeverity::kWarning);
  return ks::JsonObject()
      .Add("id", id).Add("errors", errors())
      .Add("warnings", warnings_or_worse - errors())
      .Add("notes", findings.size() - warnings_or_worse)
      .Add("functions_scanned", functions_scanned).Add("call_edges", call_edges)
      .Add("blocks_analyzed", blocks_analyzed)
      .Add("insns_decoded", insns_decoded)
      .Add("data_sections_compared", data_sections_compared)
      .Add("functions_summarized", functions_summarized)
      .Add("findings", findings).str();
}

std::string UnitReport::ToJson() const {
  return ks::JsonObject()
      .Add("unit", unit).Add("pre_cache_hit", pre_cache_hit)
      .Add("post_cache_hit", post_cache_hit)
      .Add("pre_text_bytes", pre_text_bytes)
      .Add("post_text_bytes", post_text_bytes)
      .Add("sections_compared", sections_compared)
      .Add("sections_changed", sections_changed)
      .Add("text_changed", text_changed).Add("data_changed", data_changed)
      .str();
}

std::string ChangedFunction::ToJson() const {
  return ks::JsonObject()
      .Add("unit", unit).Add("symbol", symbol).Add("change", change)
      .Add("pre_size", pre_size).Add("post_size", post_size).str();
}

std::string CreateReport::ToJson() const {
  return ks::JsonObject()
      .Add("id", id).Add("units_rebuilt", units_rebuilt)
      .Add("cache_hits", cache_hits).Add("cache_misses", cache_misses)
      .Add("prepost_wall_ns", prepost_wall_ns)
      .Add("create_wall_ns", create_wall_ns).Add("targets", targets)
      .Add("units", units).Add("changed_functions", changed_functions)
      .Add("lint", lint).str();
}

std::string SpliceRecord::ToJson() const {
  return ks::JsonObject()
      .Add("unit", unit).Add("symbol", symbol).Add("orig_address", orig_address)
      .Add("repl_address", repl_address).Add("code_size", code_size)
      .Add("repl_size", repl_size).Add("trampoline_bytes", trampoline_bytes)
      .str();
}

std::string QuiescenceBlocker::ToJson() const {
  return ks::JsonObject()
      .Add("tid", tid).Add("pc", pc).Add("hit_address", hit_address)
      .Add("from_stack", from_stack).str();
}

std::string StageTiming::ToJson() const {
  return ks::JsonObject().Add("stage", stage).Add("wall_ns", wall_ns).str();
}

std::string ApplyReport::ToJson() const {
  return ks::JsonObject()
      .Add("id", id).Add("functions", functions).Add("match", match)
      .Add("attempts", attempts).Add("quiescence_retries", quiescence_retries)
      .Add("pause_ns", pause_ns).Add("retry_ticks", retry_ticks)
      .Add("helper_bytes", helper_bytes).Add("primary_bytes", primary_bytes)
      .Add("trampoline_bytes", trampoline_bytes)
      .Add("helper_retained", helper_retained).Add("stages", stages)
      .Add("blockers", blockers).str();
}

std::string BatchApplyReport::ToJson() const {
  return ks::JsonObject()
      .Add("packages", packages).Add("updates", updates)
      .Add("attempts", attempts).Add("quiescence_retries", quiescence_retries)
      .Add("pause_ns", pause_ns).Add("retry_ticks", retry_ticks)
      .Add("functions_spliced", functions_spliced).Add("stages", stages)
      .Add("blockers", blockers).str();
}

std::string UndoReport::ToJson() const {
  return ks::JsonObject()
      .Add("id", id).Add("functions_restored", functions_restored)
      .Add("attempts", attempts).Add("quiescence_retries", quiescence_retries)
      .Add("pause_ns", pause_ns).Add("retry_ticks", retry_ticks)
      .Add("bytes_restored", bytes_restored)
      .Add("primary_bytes_reclaimed", primary_bytes_reclaimed)
      .Add("helper_bytes_reclaimed", helper_bytes_reclaimed)
      .Add("out_of_order", out_of_order)
      .Add("chains_rewritten", chains_rewritten).Add("blockers", blockers)
      .str();
}

std::string AttributedFault::ToJson() const {
  return ks::JsonObject()
      .Add("update", update).Add("unit", unit).Add("symbol", symbol)
      .Add("tid", tid).Add("pc", pc).Add("tick", tick).Add("reason", reason)
      .str();
}

std::string RevertReport::ToJson() const {
  return ks::JsonObject()
      .Add("id", id).Add("package_hash", package_hash).Add("trigger", trigger)
      .Add("detected_tick", detected_tick).Add("attempts", attempts)
      .Add("backoff_ticks", backoff_ticks).Add("reverted", reverted)
      .Add("quarantined", quarantined).Add("error", error).Add("undo", undo)
      .str();
}

std::string WatchdogReport::ToJson() const {
  return ks::JsonObject()
      .Add("window_ticks", window_ticks).Add("samples", samples)
      .Add("faults_seen", faults_seen)
      .Add("faults_attributed", faults_attributed)
      .Add("extable_fixups", extable_fixups).Add("stuck_threads", stuck_threads)
      .Add("panicked", panicked).Add("window_closed", window_closed)
      .Add("attributed", attributed).Add("unattributed", unattributed)
      .Add("reverts", reverts).str();
}

std::string QuarantineEntry::ToJson() const {
  return ks::JsonObject()
      .Add("id", id).Add("package_hash", package_hash).Add("evidence", evidence)
      .Add("tid", tid).Add("pc", pc).Add("tick", tick).str();
}

std::string HealthStatus::ToJson() const {
  return ks::JsonObject()
      .Add("faults_total", faults_total)
      .Add("faults_attributed", faults_attributed)
      .Add("extable_fixups", extable_fixups)
      .Add("dropped_log_lines", dropped_log_lines).Add("panicked", panicked)
      .Add("attributed", attributed).str();
}

std::string UpdateStatusRow::ToJson() const {
  return ks::JsonObject()
      .Add("id", id).Add("functions", functions)
      .Add("helper_loaded", helper_loaded).Add("helper_bytes", helper_bytes)
      .Add("primary_bytes", primary_bytes)
      .Add("trampoline_bytes", trampoline_bytes)
      .Add("attributed_faults", attributed_faults).Add("symbols", symbols)
      .str();
}

std::string StatusReport::ToJson() const {
  return ks::JsonObject()
      .Add("updates", updates).Add("arena_bytes_in_use", arena_bytes_in_use)
      .Add("health", health).Add("quarantine", quarantine).str();
}

const char* RolloutNodeOutcomeName(RolloutNodeOutcome outcome) {
  switch (outcome) {
    case RolloutNodeOutcome::kNotAttempted:
      return "not_attempted";
    case RolloutNodeOutcome::kAlreadyApplied:
      return "already_applied";
    case RolloutNodeOutcome::kPatched:
      return "patched";
    case RolloutNodeOutcome::kSkippedStale:
      return "skipped_stale";
    case RolloutNodeOutcome::kFailed:
      return "failed";
    case RolloutNodeOutcome::kRolledBack:
      return "rolled_back";
    case RolloutNodeOutcome::kAutoReverted:
      return "auto_reverted";
  }
  return "?";
}

std::string RolloutNodeReport::ToJson() const {
  return ks::JsonObject()
      .Add("node", node).Add("version", version).Add("wave", wave)
      .Add("canary", canary).Add("outcome", RolloutNodeOutcomeName(outcome))
      .Add("pause_ns", pause_ns).Add("attempts", attempts)
      .Add("quiescence_retries", quiescence_retries)
      .Add("functions_spliced", functions_spliced)
      .Add("soak_faults", soak_faults).Add("error", error).str();
}

std::string RolloutWaveReport::ToJson() const {
  return ks::JsonObject()
      .Add("wave", wave).Add("canary", canary).Add("nodes", nodes)
      .Add("patched", patched).Add("already_applied", already_applied)
      .Add("skipped_stale", skipped_stale).Add("failed", failed)
      .Add("auto_reverted", auto_reverted).Add("wall_ns", wall_ns)
      .Add("max_pause_ns", max_pause_ns).Add("tripped", tripped).str();
}

std::string RolloutReport::ToJson() const {
  return ks::JsonObject()
      .Add("id", id).Add("fleet_size", fleet_size).Add("aborted", aborted)
      .Add("tripped_wave", tripped_wave).Add("waves", waves)
      .Add("patched", patched).Add("already_applied", already_applied)
      .Add("skipped_stale", skipped_stale).Add("failed", failed)
      .Add("rolled_back", rolled_back).Add("auto_reverted", auto_reverted)
      .Add("not_attempted", not_attempted).Add("blacklisted", blacklisted)
      .Add("wall_ns", wall_ns).Add("nodes_per_sec", nodes_per_sec)
      .Add("pause_p50_ns", pause_p50_ns).Add("pause_p99_ns", pause_p99_ns)
      .Add("pause_max_ns", pause_max_ns).Add("wave_reports", wave_reports)
      .Add("nodes", nodes).str();
}

}  // namespace ksplice
