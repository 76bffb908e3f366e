#include "ksplice/report.h"

#include "base/strings.h"

namespace ksplice {

namespace {

using ks::JsonEscaped;

std::string JoinJson(const std::vector<std::string>& parts) {
  std::string out = "[";
  for (size_t i = 0; i < parts.size(); ++i) {
    if (i != 0) {
      out += ',';
    }
    out += parts[i];
  }
  out += ']';
  return out;
}

unsigned long long U(uint64_t v) {
  return static_cast<unsigned long long>(v);
}

}  // namespace

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
  return ks::StrPrintf(
      "{\"sections_matched\":%llu,\"candidates_tried\":%llu,"
      "\"run_bytes_matched\":%llu,\"nop_bytes_skipped\":%llu,"
      "\"reloc_sites_inverted\":%llu,\"symbols_recovered\":%llu,"
      "\"ambiguity_deferrals\":%llu,\"fixpoint_passes\":%llu,"
      "\"pre_bytes_canonicalized\":%llu,\"run_bytes_canonicalized\":%llu,"
      "\"revalidations\":%llu,\"extable_sections_matched\":%llu,"
      "\"bug_table_sections_matched\":%llu,"
      "\"date_time_sections_matched\":%llu}",
      U(sections_matched), U(candidates_tried), U(run_bytes_matched),
      U(nop_bytes_skipped), U(reloc_sites_inverted), U(symbols_recovered),
      U(ambiguity_deferrals), U(fixpoint_passes),
      U(pre_bytes_canonicalized), U(run_bytes_canonicalized),
      U(revalidations), U(extable_sections_matched),
      U(bug_table_sections_matched), U(date_time_sections_matched));
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
  std::string offset_field =
      has_offset ? ks::StrPrintf(",\"offset\":%u", offset) : "";
  return ks::StrPrintf(
      "{\"rule\":\"%s\",\"severity\":\"%s\",\"pass\":\"%s\","
      "\"unit\":\"%s\",\"symbol\":\"%s\"%s,\"message\":\"%s\","
      "\"hint\":\"%s\"}",
      JsonEscaped(rule).c_str(), LintSeverityName(severity),
      JsonEscaped(pass).c_str(), JsonEscaped(unit).c_str(),
      JsonEscaped(symbol).c_str(), offset_field.c_str(),
      JsonEscaped(message).c_str(), JsonEscaped(hint).c_str());
}

std::string LintFindingsJson(const std::vector<LintFinding>& findings) {
  std::vector<std::string> rows;
  for (const LintFinding& finding : findings) {
    rows.push_back(finding.ToJson());
  }
  return JoinJson(rows);
}

std::string LintReport::ToJson() const {
  return ks::StrPrintf(
      "{\"id\":\"%s\",\"errors\":%zu,\"warnings\":%zu,\"notes\":%zu,"
      "\"functions_scanned\":%llu,\"call_edges\":%llu,"
      "\"blocks_analyzed\":%llu,\"insns_decoded\":%llu,"
      "\"data_sections_compared\":%llu,\"functions_summarized\":%llu,"
      "\"findings\":%s}",
      JsonEscaped(id).c_str(), errors(),
      CountAtLeast(LintSeverity::kWarning) - errors(),
      findings.size() - CountAtLeast(LintSeverity::kWarning),
      U(functions_scanned), U(call_edges), U(blocks_analyzed),
      U(insns_decoded), U(data_sections_compared), U(functions_summarized),
      LintFindingsJson(findings).c_str());
}

std::string UnitReport::ToJson() const {
  return ks::StrPrintf(
      "{\"unit\":\"%s\",\"pre_cache_hit\":%s,\"post_cache_hit\":%s,"
      "\"pre_text_bytes\":%u,\"post_text_bytes\":%u,"
      "\"sections_compared\":%u,\"sections_changed\":%u,"
      "\"text_changed\":%u,\"data_changed\":%u}",
      JsonEscaped(unit).c_str(), pre_cache_hit ? "true" : "false",
      post_cache_hit ? "true" : "false", pre_text_bytes, post_text_bytes,
      sections_compared, sections_changed, text_changed, data_changed);
}

std::string ChangedFunction::ToJson() const {
  return ks::StrPrintf(
      "{\"unit\":\"%s\",\"symbol\":\"%s\",\"change\":\"%s\","
      "\"pre_size\":%u,\"post_size\":%u}",
      JsonEscaped(unit).c_str(), JsonEscaped(symbol).c_str(),
      JsonEscaped(change).c_str(), pre_size, post_size);
}

std::string CreateReport::ToJson() const {
  std::vector<std::string> unit_rows;
  for (const UnitReport& unit : units) {
    unit_rows.push_back(unit.ToJson());
  }
  std::vector<std::string> fn_rows;
  for (const ChangedFunction& fn : changed_functions) {
    fn_rows.push_back(fn.ToJson());
  }
  return ks::StrPrintf(
      "{\"id\":\"%s\",\"units_rebuilt\":%u,\"cache_hits\":%llu,"
      "\"cache_misses\":%llu,\"prepost_wall_ns\":%llu,"
      "\"create_wall_ns\":%llu,\"targets\":%u,\"units\":%s,"
      "\"changed_functions\":%s,\"lint\":%s}",
      JsonEscaped(id).c_str(), units_rebuilt, U(cache_hits), U(cache_misses),
      U(prepost_wall_ns), U(create_wall_ns), targets,
      JoinJson(unit_rows).c_str(), JoinJson(fn_rows).c_str(),
      lint.ToJson().c_str());
}

std::string SpliceRecord::ToJson() const {
  return ks::StrPrintf(
      "{\"unit\":\"%s\",\"symbol\":\"%s\",\"orig_address\":%u,"
      "\"repl_address\":%u,\"code_size\":%u,\"repl_size\":%u,"
      "\"trampoline_bytes\":%u}",
      JsonEscaped(unit).c_str(), JsonEscaped(symbol).c_str(), orig_address,
      repl_address, code_size, repl_size, trampoline_bytes);
}

std::string QuiescenceBlocker::ToJson() const {
  return ks::StrPrintf(
      "{\"tid\":%d,\"pc\":%u,\"hit_address\":%u,\"from_stack\":%s}", tid,
      pc, hit_address, from_stack ? "true" : "false");
}

std::string StageTiming::ToJson() const {
  return ks::StrPrintf("{\"stage\":\"%s\",\"wall_ns\":%llu}",
                       JsonEscaped(stage).c_str(), U(wall_ns));
}

namespace {

std::string StagesJson(const std::vector<StageTiming>& stages) {
  std::vector<std::string> rows;
  for (const StageTiming& stage : stages) {
    rows.push_back(stage.ToJson());
  }
  return JoinJson(rows);
}

std::string BlockersJson(const std::vector<QuiescenceBlocker>& blockers) {
  std::vector<std::string> rows;
  for (const QuiescenceBlocker& blocker : blockers) {
    rows.push_back(blocker.ToJson());
  }
  return JoinJson(rows);
}

}  // namespace

std::string ApplyReport::ToJson() const {
  std::vector<std::string> fn_rows;
  for (const SpliceRecord& fn : functions) {
    fn_rows.push_back(fn.ToJson());
  }
  return ks::StrPrintf(
      "{\"id\":\"%s\",\"functions\":%s,\"match\":%s,\"attempts\":%d,"
      "\"quiescence_retries\":%d,\"pause_ns\":%llu,\"retry_ticks\":%llu,"
      "\"helper_bytes\":%llu,\"primary_bytes\":%u,\"trampoline_bytes\":%u,"
      "\"helper_retained\":%s,\"stages\":%s,\"blockers\":%s}",
      JsonEscaped(id).c_str(), JoinJson(fn_rows).c_str(),
      match.ToJson().c_str(), attempts, quiescence_retries, U(pause_ns),
      U(retry_ticks), U(helper_bytes), primary_bytes, trampoline_bytes,
      helper_retained ? "true" : "false", StagesJson(stages).c_str(),
      BlockersJson(blockers).c_str());
}

std::string BatchApplyReport::ToJson() const {
  std::vector<std::string> rows;
  for (const ApplyReport& update : updates) {
    rows.push_back(update.ToJson());
  }
  return ks::StrPrintf(
      "{\"packages\":%u,\"updates\":%s,\"attempts\":%d,"
      "\"quiescence_retries\":%d,\"pause_ns\":%llu,\"retry_ticks\":%llu,"
      "\"functions_spliced\":%u,\"stages\":%s,\"blockers\":%s}",
      packages, JoinJson(rows).c_str(), attempts, quiescence_retries,
      U(pause_ns), U(retry_ticks), functions_spliced,
      StagesJson(stages).c_str(), BlockersJson(blockers).c_str());
}

std::string UndoReport::ToJson() const {
  return ks::StrPrintf(
      "{\"id\":\"%s\",\"functions_restored\":%u,\"attempts\":%d,"
      "\"quiescence_retries\":%d,\"pause_ns\":%llu,\"retry_ticks\":%llu,"
      "\"bytes_restored\":%u,\"primary_bytes_reclaimed\":%u,"
      "\"helper_bytes_reclaimed\":%u,\"out_of_order\":%s,"
      "\"chains_rewritten\":%u,\"blockers\":%s}",
      JsonEscaped(id).c_str(), functions_restored, attempts,
      quiescence_retries, U(pause_ns), U(retry_ticks), bytes_restored,
      primary_bytes_reclaimed, helper_bytes_reclaimed,
      out_of_order ? "true" : "false", chains_rewritten,
      BlockersJson(blockers).c_str());
}

std::string AttributedFault::ToJson() const {
  return ks::StrPrintf(
      "{\"update\":\"%s\",\"unit\":\"%s\",\"symbol\":\"%s\",\"tid\":%d,"
      "\"pc\":%u,\"tick\":%llu,\"reason\":\"%s\"}",
      JsonEscaped(update).c_str(), JsonEscaped(unit).c_str(),
      JsonEscaped(symbol).c_str(), tid, pc, U(tick),
      JsonEscaped(reason).c_str());
}

namespace {

std::string AttributedJson(const std::vector<AttributedFault>& faults) {
  std::vector<std::string> rows;
  for (const AttributedFault& fault : faults) {
    rows.push_back(fault.ToJson());
  }
  return JoinJson(rows);
}

}  // namespace

std::string RevertReport::ToJson() const {
  return ks::StrPrintf(
      "{\"id\":\"%s\",\"package_hash\":%llu,\"trigger\":%s,"
      "\"detected_tick\":%llu,\"attempts\":%d,\"backoff_ticks\":%llu,"
      "\"reverted\":%s,\"quarantined\":%s,\"error\":\"%s\",\"undo\":%s}",
      JsonEscaped(id).c_str(), U(package_hash), trigger.ToJson().c_str(),
      U(detected_tick), attempts, U(backoff_ticks),
      reverted ? "true" : "false", quarantined ? "true" : "false",
      JsonEscaped(error).c_str(), undo.ToJson().c_str());
}

std::string WatchdogReport::ToJson() const {
  std::vector<std::string> unattributed_rows;
  for (const std::string& line : unattributed) {
    unattributed_rows.push_back(
        ks::StrPrintf("\"%s\"", JsonEscaped(line).c_str()));
  }
  std::vector<std::string> revert_rows;
  for (const RevertReport& revert : reverts) {
    revert_rows.push_back(revert.ToJson());
  }
  return ks::StrPrintf(
      "{\"window_ticks\":%llu,\"samples\":%llu,\"faults_seen\":%llu,"
      "\"faults_attributed\":%llu,\"extable_fixups\":%llu,"
      "\"stuck_threads\":%u,\"panicked\":%s,\"window_closed\":%s,"
      "\"attributed\":%s,\"unattributed\":%s,\"reverts\":%s}",
      U(window_ticks), U(samples), U(faults_seen), U(faults_attributed),
      U(extable_fixups), stuck_threads, panicked ? "true" : "false",
      window_closed ? "true" : "false", AttributedJson(attributed).c_str(),
      JoinJson(unattributed_rows).c_str(), JoinJson(revert_rows).c_str());
}

std::string QuarantineEntry::ToJson() const {
  return ks::StrPrintf(
      "{\"id\":\"%s\",\"package_hash\":%llu,\"evidence\":\"%s\","
      "\"tid\":%d,\"pc\":%u,\"tick\":%llu}",
      JsonEscaped(id).c_str(), U(package_hash),
      JsonEscaped(evidence).c_str(), tid, pc, U(tick));
}

std::string HealthStatus::ToJson() const {
  return ks::StrPrintf(
      "{\"faults_total\":%llu,\"faults_attributed\":%llu,"
      "\"extable_fixups\":%llu,\"dropped_log_lines\":%llu,"
      "\"panicked\":%s,\"attributed\":%s}",
      U(faults_total), U(faults_attributed), U(extable_fixups),
      U(dropped_log_lines), panicked ? "true" : "false",
      AttributedJson(attributed).c_str());
}

std::string UpdateStatusRow::ToJson() const {
  std::vector<std::string> symbol_rows;
  for (const std::string& symbol : symbols) {
    symbol_rows.push_back(ks::StrPrintf("\"%s\"", JsonEscaped(symbol).c_str()));
  }
  return ks::StrPrintf(
      "{\"id\":\"%s\",\"functions\":%u,\"helper_loaded\":%s,"
      "\"helper_bytes\":%u,\"primary_bytes\":%u,\"trampoline_bytes\":%u,"
      "\"attributed_faults\":%llu,\"symbols\":%s}",
      JsonEscaped(id).c_str(), functions, helper_loaded ? "true" : "false",
      helper_bytes, primary_bytes, trampoline_bytes, U(attributed_faults),
      JoinJson(symbol_rows).c_str());
}

std::string StatusReport::ToJson() const {
  std::vector<std::string> rows;
  for (const UpdateStatusRow& row : updates) {
    rows.push_back(row.ToJson());
  }
  std::vector<std::string> quarantine_rows;
  for (const QuarantineEntry& entry : quarantine) {
    quarantine_rows.push_back(entry.ToJson());
  }
  return ks::StrPrintf(
      "{\"updates\":%s,\"arena_bytes_in_use\":%u,\"health\":%s,"
      "\"quarantine\":%s}",
      JoinJson(rows).c_str(), arena_bytes_in_use, health.ToJson().c_str(),
      JoinJson(quarantine_rows).c_str());
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
  return ks::StrPrintf(
      "{\"node\":\"%s\",\"version\":\"%s\",\"wave\":%d,\"canary\":%s,"
      "\"outcome\":\"%s\",\"pause_ns\":%llu,\"attempts\":%d,"
      "\"quiescence_retries\":%d,\"functions_spliced\":%u,"
      "\"soak_faults\":%llu,\"error\":\"%s\"}",
      JsonEscaped(node).c_str(), JsonEscaped(version).c_str(), wave,
      canary ? "true" : "false", RolloutNodeOutcomeName(outcome),
      U(pause_ns), attempts, quiescence_retries, functions_spliced,
      U(soak_faults), JsonEscaped(error).c_str());
}

std::string RolloutWaveReport::ToJson() const {
  return ks::StrPrintf(
      "{\"wave\":%d,\"canary\":%s,\"nodes\":%u,\"patched\":%u,"
      "\"already_applied\":%u,\"skipped_stale\":%u,\"failed\":%u,"
      "\"auto_reverted\":%u,\"wall_ns\":%llu,\"max_pause_ns\":%llu,"
      "\"tripped\":%s}",
      wave, canary ? "true" : "false", nodes, patched, already_applied,
      skipped_stale, failed, auto_reverted, U(wall_ns), U(max_pause_ns),
      tripped ? "true" : "false");
}

std::string RolloutReport::ToJson() const {
  std::vector<std::string> wave_rows;
  for (const RolloutWaveReport& wave : wave_reports) {
    wave_rows.push_back(wave.ToJson());
  }
  std::vector<std::string> node_rows;
  for (const RolloutNodeReport& node : nodes) {
    node_rows.push_back(node.ToJson());
  }
  std::vector<std::string> blacklist_rows;
  for (const std::string& entry : blacklisted) {
    blacklist_rows.push_back(
        ks::StrPrintf("\"%s\"", JsonEscaped(entry).c_str()));
  }
  return ks::StrPrintf(
      "{\"id\":\"%s\",\"fleet_size\":%u,\"aborted\":%s,"
      "\"tripped_wave\":%d,\"waves\":%u,\"patched\":%u,"
      "\"already_applied\":%u,\"skipped_stale\":%u,\"failed\":%u,"
      "\"rolled_back\":%u,\"auto_reverted\":%u,\"not_attempted\":%u,"
      "\"blacklisted\":%s,\"wall_ns\":%llu,"
      "\"nodes_per_sec\":%.3f,\"pause_p50_ns\":%llu,"
      "\"pause_p99_ns\":%llu,\"pause_max_ns\":%llu,\"wave_reports\":%s,"
      "\"nodes\":%s}",
      JsonEscaped(id).c_str(), fleet_size, aborted ? "true" : "false",
      tripped_wave, waves, patched, already_applied, skipped_stale, failed,
      rolled_back, auto_reverted, not_attempted,
      JoinJson(blacklist_rows).c_str(), U(wall_ns), nodes_per_sec,
      U(pause_p50_ns), U(pause_p99_ns), U(pause_max_ns),
      JoinJson(wave_rows).c_str(), JoinJson(node_rows).c_str());
}

}  // namespace ksplice
