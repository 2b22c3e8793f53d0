#include "consensus/messages.hpp"

#include <memory>

namespace idem::msg {

namespace {

template <typename M>
std::shared_ptr<const Message> make(ByteReader& r) {
  return std::make_shared<const M>(M::decode_body(r));
}

}  // namespace

std::shared_ptr<const Message> decode(std::span<const std::byte> data) {
  ByteReader r(data);
  auto type = static_cast<Type>(r.u8());
  switch (type) {
    case Type::Request: return make<Request>(r);
    case Type::Reply: return make<Reply>(r);
    case Type::Reject: return make<Reject>(r);
    case Type::Require: return make<Require>(r);
    case Type::Propose: return make<Propose>(r);
    case Type::Commit: return make<Commit>(r);
    case Type::Forward: return make<Forward>(r);
    case Type::Fetch: return make<Fetch>(r);
    case Type::ViewChange: return make<ViewChange>(r);
    case Type::StateRequest: return make<StateRequest>(r);
    case Type::StateResponse: return make<StateResponse>(r);
    case Type::PaxosPropose: return make<PaxosPropose>(r);
    case Type::PaxosAccept: return make<PaxosAccept>(r);
    case Type::PaxosViewChange: return make<PaxosViewChange>(r);
    case Type::PaxosHeartbeat: return make<PaxosHeartbeat>(r);
    case Type::SmartPropose: return make<SmartPropose>(r);
    case Type::SmartWrite: return make<SmartWrite>(r);
    case Type::SmartAccept: return make<SmartAccept>(r);
  }
  throw CodecError("unknown message type " + std::to_string(static_cast<int>(type)));
}

}  // namespace idem::msg
