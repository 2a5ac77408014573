#include "net/client.h"

#include <utility>

namespace bgpcu::net {

ProtocolError::ProtocolError(api::ErrorFrame error)
    : std::runtime_error("server error " + std::to_string(static_cast<int>(error.code)) +
                         ": " + error.message),
      error_(std::move(error)) {}

Client::Client(std::unique_ptr<Connection> conn, Options options)
    : conn_(std::move(conn)), frames_(options.max_frame_payload) {
  try {
    send(api::encode_hello({api::kProtocolVersion, options.token}));
  } catch (const TransportError&) {
    // The server may have rejected us (e.g. at its connection limit) and
    // hung up before our hello landed; its answer is still readable below.
  }
  const auto frame = await(api::FrameType::kWelcome);
  if (frame.empty()) {
    throw TransportError("connection closed during handshake");
  }
  welcome_ = api::decode_welcome(frame);
}

std::vector<std::uint8_t> Client::read_frame() {
  if (chunk_.empty()) chunk_.resize(16384);
  for (;;) {
    auto frame = frames_.extract();
    if (!frame.empty()) return frame;
    const auto n = conn_->read_some(chunk_);
    if (n == 0) return {};
    frames_.append(std::span(chunk_.data(), n));
  }
}

std::vector<std::uint8_t> Client::await(api::FrameType want) {
  for (;;) {
    auto frame = read_frame();
    if (frame.empty()) return frame;
    const auto type = api::peek_frame_type(frame);
    if (type == want) return frame;
    switch (type) {
      case api::FrameType::kEvent:
        pending_events_.push_back(api::decode_event(frame));
        break;
      case api::FrameType::kPing:
        send(api::encode_ping(api::decode_ping(frame), api::FrameType::kPong));
        break;
      case api::FrameType::kBusy:
        throw BusyError(api::decode_busy(frame));
      case api::FrameType::kError:
        throw ProtocolError(api::decode_error(frame));
      default:
        throw TransportError("unexpected frame type " +
                             std::to_string(static_cast<int>(type)) + " awaiting type " +
                             std::to_string(static_cast<int>(want)));
    }
  }
}

void Client::send(const std::vector<std::uint8_t>& frame) {
  if (!conn_->write_all(frame)) {
    throw TransportError("connection closed while sending");
  }
}

api::QueryResponse Client::query(const api::QueryRequest& request) {
  const auto id = next_request_id_++;
  send(api::encode_request({id, request}));
  const auto frame = await(api::FrameType::kResponse);
  if (frame.empty()) {
    throw TransportError("connection closed awaiting response " + std::to_string(id));
  }
  auto response = api::decode_response(frame);
  if (response.request_id != id) {
    throw TransportError("response id " + std::to_string(response.request_id) +
                         " does not match request " + std::to_string(id));
  }
  return std::move(response.response);
}

std::uint64_t Client::subscribe(const api::SubscriptionFilter& filter,
                                std::optional<stream::Epoch> replay_from) {
  const auto id = next_request_id_++;
  send(api::encode_subscribe({id, filter, replay_from}));
  const auto frame = await(api::FrameType::kSubscribed);
  if (frame.empty()) throw TransportError("connection closed awaiting subscribe ack");
  const auto ack = api::decode_subscribed(frame);
  if (ack.request_id != id) throw TransportError("subscribe ack for wrong request id");
  return ack.subscription_id;
}

void Client::unsubscribe(std::uint64_t subscription_id) {
  const auto id = next_request_id_++;
  send(api::encode_unsubscribe({id, subscription_id}));
  const auto frame = await(api::FrameType::kUnsubscribed);
  if (frame.empty()) throw TransportError("connection closed awaiting unsubscribe ack");
  if (api::decode_subscribed(frame, api::FrameType::kUnsubscribed).request_id != id) {
    throw TransportError("unsubscribe ack for wrong request id");
  }
}

std::optional<api::EventFrame> Client::next_event() {
  if (!pending_events_.empty()) {
    auto event = std::move(pending_events_.front());
    pending_events_.pop_front();
    return event;
  }
  const auto frame = await(api::FrameType::kEvent);
  if (frame.empty()) return std::nullopt;
  return api::decode_event(frame);
}

void Client::finish_requests() { conn_->shutdown_write(); }

void Client::close() { conn_->close(); }

}  // namespace bgpcu::net
