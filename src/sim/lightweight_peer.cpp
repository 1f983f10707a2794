#include "sim/lightweight_peer.hpp"

#include <algorithm>
#include <cstdint>
#include <utility>
#include <variant>

#include "transport/transport_error.hpp"
#include "util/error.hpp"

namespace pti::sim {

using transport::CodeRequest;
using transport::CodeResponse;
using transport::ErrorReply;
using transport::Message;
using transport::ObjectPush;
using transport::PushAck;
using transport::SessionAck;
using transport::SessionBatch;
using transport::SessionBatchAck;
using transport::SessionIntro;
using transport::SessionPush;
using transport::SessionStatus;
using transport::TypeInfoRequest;
using transport::TypeInfoResponse;

LightweightPeer::LightweightPeer(std::uint32_t index, transport::Transport& network,
                                 TypeUniverse& universe,
                                 transport::InterestIndex& interests,
                                 transport::ProtocolMode mode, bool use_sessions,
                                 transport::IntroRegistry* intro_registry)
    : index_(index),
      name_("p" + std::to_string(index)),
      network_(network),
      universe_(universe),
      interests_(interests),
      mode_(mode),
      known_(universe.type_count(), false),
      loaded_(universe.type_count(), false),
      use_sessions_(use_sessions),
      intro_sent_(universe.type_count()),
      session_known_(universe.type_count()),
      intro_registry_(intro_registry) {}

LightweightPeer::~LightweightPeer() {
  if (live_) leave();
}

void LightweightPeer::set_interests(std::vector<std::uint32_t> interest_families) {
  interest_families_ = std::move(interest_families);
}

void LightweightPeer::join() {
  if (live_) return;
  sub_ = interests_.add_subscriber();
  for (const std::uint32_t family : interest_families_) {
    interests_.add_interest(sub_, universe_.interest_id(family),
                            universe_.interest_fingerprint(family));
  }
  network_.attach(name_, [this](const Message& m) { return handle(m); });
  live_ = true;
}

void LightweightPeer::leave() {
  if (!live_) return;
  network_.detach(name_);
  interests_.remove_subscriber(sub_);
  sub_ = transport::kNoSubscriber;
  live_ = false;
}

SessionPush LightweightPeer::build_session_entry(const std::string& target,
                                                 std::uint32_t family, bool fresh) {
  SessionPush push;
  push.token = index_ + 1;
  push.wire_types = {family + 1};
  push.encoding = universe_.payload_encoding();
  push.payload = universe_.payload_bytes(family);
  if (fresh) {
    SessionIntro intro;
    intro.wire_id = family + 1;
    intro.type_name = universe_.publisher_type_name(family);
    intro.description_xml = universe_.description_xml(family);
    intro.assembly_name = universe_.assembly_name(family);
    intro.download_path = "net://origin/" + universe_.assembly_name(family);
    if (intro_registry_ != nullptr &&
        intro_registry_->knows(target, universe_.description_hash(family))) {
      // The target advertised this hash earlier (to us or to any other
      // sender): the wire binding still crosses, the XML does not.
      intro.description_xml.clear();
    }
    push.intros.push_back(std::move(intro));
    if (mode_ == transport::ProtocolMode::Eager) {
      push.intro_assembly_names.push_back(universe_.assembly_name(family));
      push.intro_assembly_bytes = universe_.assembly_code_size(family);
    }
  }
  return push;
}

LightweightPeer::PushOutcome LightweightPeer::publish_session(const LightweightPeer& target,
                                                              std::uint32_t family) {
  // Publishing makes us the origin: we hold the description and code.
  known_[family] = true;
  loaded_[family] = true;
  const std::uint32_t sent = intro_sent_.row(target.index());

  for (int attempt = 0; attempt < 2; ++attempt) {
    const bool fresh = !intro_sent_.test(sent, family);
    SessionPush push = build_session_entry(target.name(), family, fresh);
    ++counters_.pushes_sent;
    try {
      const Message response = network_.send(Message{name_, target.name(), std::move(push)});
      if (const auto* ack = std::get_if<SessionAck>(&response.payload)) {
        if (intro_registry_ != nullptr) {
          intro_registry_->record_all(target.name(), ack->known_desc_hashes);
        }
        if (ack->status == SessionStatus::Reset) {
          // The receiver lost the session: replay once with the intro.
          intro_sent_.clear(sent);
          continue;
        }
        if (fresh) intro_sent_.set(sent, family);  // commit-on-ack
        PushOutcome outcome{ack->delivered, false, kNoInterest};
        if (ack->delivered) outcome.matched = universe_.interest_by_type_name(ack->detail);
        return outcome;
      }
      return PushOutcome{false, true, kNoInterest};  // in-band fault (ErrorReply)
    } catch (const pti::Error&) {
      return PushOutcome{false, true, kNoInterest};  // drop, partition, or quota
    }
  }
  return PushOutcome{false, true, kNoInterest};  // reset twice: give up on this push
}

void LightweightPeer::publish_batch_to(const LightweightPeer& target,
                                       const std::vector<std::uint32_t>& families,
                                       std::vector<PushOutcome>& out) {
  out.assign(families.size(), PushOutcome{false, true, kNoInterest});
  if (families.empty()) return;
  const std::uint32_t sent = intro_sent_.row(target.index());

  // Plans are built at flush time, exactly like transport::Peer's window:
  // the FIRST entry for a family carries the intro, later entries in the
  // same frame ride the binding the receiver learns while processing it.
  SessionBatch batch;
  batch.entries.reserve(families.size());
  std::vector<bool> fresh(families.size(), false);
  for (std::size_t i = 0; i < families.size(); ++i) {
    const std::uint32_t family = families[i];
    known_[family] = true;
    loaded_[family] = true;
    const auto earlier = families.begin() + static_cast<std::ptrdiff_t>(i);
    fresh[i] = !intro_sent_.test(sent, family) &&
               std::find(families.begin(), earlier, family) == earlier;
    batch.entries.push_back(build_session_entry(target.name(), family, fresh[i]));
    ++counters_.pushes_sent;
  }

  try {
    const Message response = network_.send(Message{name_, target.name(), std::move(batch)});
    const auto* back = std::get_if<SessionBatchAck>(&response.payload);
    if (back == nullptr || back->entries.size() != families.size()) {
      return;  // in-band fault (ErrorReply) or malformed ack: all dropped
    }
    for (std::size_t i = 0; i < families.size(); ++i) {
      const SessionAck& ack = back->entries[i];
      if (intro_registry_ != nullptr) {
        intro_registry_->record_all(target.name(), ack.known_desc_hashes);
      }
      if (ack.status == SessionStatus::Reset) {
        // This slot lost the session: replay it individually with intros,
        // leaving every other slot's verdict untouched.
        intro_sent_.clear(sent);
        --counters_.pushes_sent;  // publish_session recounts the replay
        out[i] = publish_session(target, families[i]);
        continue;
      }
      if (fresh[i]) intro_sent_.set(sent, families[i]);  // commit-on-ack, per slot
      out[i] = PushOutcome{ack.delivered, false, kNoInterest};
      if (ack.delivered) out[i].matched = universe_.interest_by_type_name(ack.detail);
    }
  } catch (const pti::Error&) {
    // The whole frame dropped: every entry stays a drop.
  }
}

LightweightPeer::PushOutcome LightweightPeer::publish_to(const LightweightPeer& target,
                                                         std::uint32_t family) {
  if (use_sessions_) return publish_session(target, family);
  ObjectPush push;
  push.envelope = universe_.envelope_bytes(family);
  if (mode_ == transport::ProtocolMode::Eager) {
    push.eager_descriptions_xml.push_back(universe_.description_xml(family));
    push.eager_assembly_names.push_back(universe_.assembly_name(family));
    push.eager_assembly_bytes = universe_.assembly_code_size(family);
  }
  // Publishing makes us the origin: we hold the description and code.
  known_[family] = true;
  loaded_[family] = true;
  ++counters_.pushes_sent;
  try {
    const Message response = network_.send(Message{name_, target.name(), std::move(push)});
    if (const auto* ack = std::get_if<PushAck>(&response.payload)) {
      return PushOutcome{ack->delivered, false};
    }
    return PushOutcome{false, true};  // in-band fault (ErrorReply)
  } catch (const pti::Error&) {
    return PushOutcome{false, true};  // drop, partition, or quota rejection
  }
}

Message LightweightPeer::handle(const Message& request) {
  try {
    if (const auto* push = std::get_if<ObjectPush>(&request.payload)) {
      return handle_push(request, *push);
    }
    if (const auto* spush = std::get_if<SessionPush>(&request.payload)) {
      return handle_session_push(request, *spush);
    }
    if (const auto* batch = std::get_if<SessionBatch>(&request.payload)) {
      return handle_session_batch(request, *batch);
    }
    if (const auto* info = std::get_if<TypeInfoRequest>(&request.payload)) {
      TypeInfoResponse response;
      for (const std::string& type_name : info->type_names) {
        const std::uint32_t family = universe_.type_by_name(type_name);
        if (family == TypeUniverse::kNoType || !known_[family]) {
          response.unknown.push_back(type_name);
        } else {
          response.descriptions_xml.push_back(universe_.description_xml(family));
          ++counters_.typeinfo_served;
        }
      }
      return Message{name_, request.sender, std::move(response)};
    }
    if (const auto* code = std::get_if<CodeRequest>(&request.payload)) {
      CodeResponse response;
      response.assembly_name = code->assembly_name;
      // Assembly name "u<t>.gen" maps back to its family via the type map.
      const std::string type_name =
          code->assembly_name.size() > 4
              ? code->assembly_name.substr(0, code->assembly_name.size() - 4) + ".Thing"
              : std::string();
      const std::uint32_t family = universe_.type_by_name(type_name);
      if (family != TypeUniverse::kNoType && loaded_[family]) {
        response.found = true;
        response.code_bytes = universe_.assembly_code_size(family);
        ++counters_.code_served;
      }
      return Message{name_, request.sender, std::move(response)};
    }
    return Message{name_, request.sender,
                   ErrorReply{"lightweight peer '" + name_ + "' cannot handle " +
                              request.kind_name()}};
  } catch (const pti::Error& e) {
    // A nested fetch hit a drop or partition mid-handler: surface it as
    // the in-band fault the publisher counts as a drop.
    return Message{name_, request.sender, ErrorReply{e.what()}};
  }
}

Message LightweightPeer::handle_session_push(const Message& request,
                                             const SessionPush& push) {
  return Message{name_, request.sender, process_session_push(request.sender, push)};
}

Message LightweightPeer::handle_session_batch(const Message& request,
                                              const SessionBatch& batch) {
  // Strict order, one verdict per slot: the ack stream a batch produces is
  // exactly the concatenation of the per-push acks.
  SessionBatchAck back;
  back.entries.reserve(batch.entries.size());
  for (const SessionPush& entry : batch.entries) {
    back.entries.push_back(process_session_push(request.sender, entry));
  }
  return Message{name_, request.sender, std::move(back)};
}

SessionAck LightweightPeer::process_session_push(const std::string& sender,
                                                 const SessionPush& push) {
  ++counters_.pushes_received;
  last_matched_ = kNoInterest;

  // The session is named by the push's token, the sender's index + 1; a
  // token whose index does not fit a peer index names no session, so its
  // wire ids are unknown and the push is answered with a Reset.
  const bool named = push.token != 0 && push.token - 1 <= UINT32_MAX;
  const auto session = static_cast<std::uint32_t>(push.token - 1);
  std::uint32_t row = named ? session_known_.find(session) : PairFamilyBits::kNoRow;
  // Descriptions that actually crossed the wire in this push get their
  // hashes advertised back, so ANY sender can skip those bytes next time.
  std::vector<std::uint64_t> advertised;
  for (const SessionIntro& intro : push.intros) {
    const std::uint32_t f = universe_.type_by_name(intro.type_name);
    if (f != TypeUniverse::kNoType && intro.wire_id == f + 1) {
      if (named) {
        if (row == PairFamilyBits::kNoRow) row = session_known_.row(session);
        session_known_.set(row, f);
      }
      known_[f] = true;
      if (!intro.description_xml.empty()) {
        advertised.push_back(universe_.description_hash(f));
      }
    }
  }
  // Eager prepay: the intro's assembly arrived with the push.
  for (const std::string& assembly_name : push.intro_assembly_names) {
    for (const SessionIntro& intro : push.intros) {
      if (intro.assembly_name != assembly_name) continue;
      const std::uint32_t f = universe_.type_by_name(intro.type_name);
      if (f != TypeUniverse::kNoType) loaded_[f] = true;
    }
  }

  if (push.wire_types.empty()) {
    ++counters_.rejected;
    return SessionAck{SessionStatus::Ok, false, "no object types", std::move(advertised)};
  }
  const std::uint32_t wire = push.wire_types.front();
  if (wire == 0 || wire > universe_.type_count() || row == PairFamilyBits::kNoRow ||
      !session_known_.test(row, wire - 1)) {
    // A Reset ack carries the full known-description set: the sender's
    // replay can skip every description this receiver already holds.
    advertised.clear();
    for (std::uint32_t f = 0; f < universe_.type_count(); ++f) {
      if (known_[f]) advertised.push_back(universe_.description_hash(f));
    }
    return SessionAck{SessionStatus::Reset, false, "session state lost",
                      std::move(advertised)};
  }
  const std::uint32_t family = wire - 1;

  // Conformance: the same shared-index scan and matrix probe as the cold
  // path — session mode must agree on every verdict.
  const auto match = interests_.match_first(sub_, [&](const transport::InterestEntry& e) {
    const std::uint32_t interest = universe_.interest_of_id(e.interest);
    return interest != TypeUniverse::kNoType && universe_.conforms(family, interest);
  });
  if (!match) {
    ++counters_.rejected;
    return SessionAck{SessionStatus::Ok, false, "no interest conforms",
                      std::move(advertised)};
  }
  last_matched_ = universe_.interest_of_id(match->interest);

  // First acceptance from a cold optimistic session still fetches code in
  // a nested exchange; every later push skips it via loaded_.
  if (!loaded_[family]) {
    ++counters_.code_requests;
    const Message response =
        network_.send(Message{name_, sender, CodeRequest{universe_.assembly_name(family)}});
    const auto* code = std::get_if<CodeResponse>(&response.payload);
    if (code == nullptr || !code->found) {
      ++counters_.rejected;
      last_matched_ = kNoInterest;
      return SessionAck{SessionStatus::Ok, false, "code unavailable",
                        std::move(advertised)};
    }
    counters_.code_bytes_fetched += code->code_bytes;
    loaded_[family] = true;
  }

  ++counters_.accepted;
  return SessionAck{SessionStatus::Ok, true, universe_.interest_type_name(last_matched_),
                    std::move(advertised)};
}

Message LightweightPeer::handle_push(const Message& request, const ObjectPush& push) {
  ++counters_.pushes_received;
  last_matched_ = kNoInterest;
  const std::uint32_t family = universe_.type_of_envelope(push.envelope);
  if (family == TypeUniverse::kNoType) {
    ++counters_.rejected;
    return Message{name_, request.sender, PushAck{false, "unknown envelope"}};
  }

  // Eager extras land first, exactly as in Peer::handle_object_push.
  if (!push.eager_descriptions_xml.empty()) known_[family] = true;
  if (!push.eager_assembly_names.empty()) loaded_[family] = true;

  // Step 2: fetch the description when the type is unknown.
  if (!known_[family]) {
    ++counters_.typeinfo_requests;
    const Message response = network_.send(Message{
        name_, request.sender, TypeInfoRequest{{universe_.publisher_type_name(family)}}});
    const auto* info = std::get_if<TypeInfoResponse>(&response.payload);
    if (info == nullptr || info->descriptions_xml.empty()) {
      ++counters_.rejected;
      return Message{name_, request.sender, PushAck{false, "sender cannot describe"}};
    }
    known_[family] = true;
  }

  // Step 3: first conformant interest in declaration order, through the
  // SAME shared index engine Peer uses; the verdict itself is the
  // checker-built matrix.
  const auto match = interests_.match_first(sub_, [&](const transport::InterestEntry& e) {
    const std::uint32_t interest = universe_.interest_of_id(e.interest);
    return interest != TypeUniverse::kNoType && universe_.conforms(family, interest);
  });
  if (!match) {
    // The optimistic pay-off: rejection without any code download.
    ++counters_.rejected;
    return Message{name_, request.sender, PushAck{false, "no interest conforms"}};
  }
  last_matched_ = universe_.interest_of_id(match->interest);

  // Steps 4+5: download the code once per family.
  if (!loaded_[family]) {
    ++counters_.code_requests;
    const Message response = network_.send(
        Message{name_, request.sender, CodeRequest{universe_.assembly_name(family)}});
    const auto* code = std::get_if<CodeResponse>(&response.payload);
    if (code == nullptr || !code->found) {
      ++counters_.rejected;
      last_matched_ = kNoInterest;
      return Message{name_, request.sender, PushAck{false, "code unavailable"}};
    }
    counters_.code_bytes_fetched += code->code_bytes;
    loaded_[family] = true;
  }

  ++counters_.accepted;
  return Message{name_, request.sender,
                 PushAck{true, universe_.interest_type_name(last_matched_)}};
}

}  // namespace pti::sim
