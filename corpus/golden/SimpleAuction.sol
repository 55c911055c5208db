// SPDX-License-Identifier: MIT
// Generated from the SimpleAuction state machine; do not edit.
pragma solidity ^0.8.19;

contract SimpleAuction {
    enum State { StartAuction, AuctionOpen, AuctionClosed, AuctionOpen_bid1__step1 }
    enum TimerPhase { Off, Active, Fired }
    struct Timer { TimerPhase phase; uint256 remaining; }

    State public skeleton;
    uint256 private reentrancyCounter;
    uint256 private coinLedger;
    address payable public ownerAddr;
    address payable public immutable creatorAddr;
    address payable private beneficiary;
    uint256 private bidding_time;
    Timer private tmr;
    uint256 private maxBid;
    address payable private maxBidder;
    address payable private z_AuctionOpen_bid1_a;
    uint256 private z_AuctionOpen_bid1_c;

    modifier defended() {
        require(reentrancyCounter <= 1, "reentrancy limit");
        reentrancyCounter += 1;
        _;
        reentrancyCounter -= 1;
        require(heldCoins() == coinLedger, "coin conservation");
    }

    constructor(address payable p_beneficiary, uint256 p_bidding_time) {
        ownerAddr = payable(msg.sender);
        creatorAddr = payable(msg.sender);
        beneficiary = p_beneficiary;
        bidding_time = p_bidding_time;
        require(((beneficiary != payable(address(0))) && (bidding_time > 0)), "constructor constraint");
        skeleton = State.StartAuction;
    }

    function heldCoins() private view returns (uint256 total) {
        total += maxBid;
        total += z_AuctionOpen_bid1_c;
        // coins inside maps are accounted for at their move sites
    }

    function timerSet(Timer storage t, uint256 k) private {
        require(t.phase == TimerPhase.Off && k > 0, "timer misuse");
        t.phase = TimerPhase.Active;
        t.remaining = k;
    }
    function timerValue(Timer storage t) private view returns (uint256) {
        require(t.phase == TimerPhase.Active, "timer not active");
        return t.remaining;
    }

    function start() external defended {
        if (skeleton == State.StartAuction && payable(msg.sender) == ownerAddr) {
            timerSet(tmr, bidding_time);
            skeleton = State.AuctionOpen;
            tauClosure();
            return;
        }
        revert("no transition enabled");
    }

    function bid() external payable defended {
        coinLedger += msg.value;
        if (skeleton == State.AuctionOpen) {
            address payable a = payable(msg.sender);
            uint256 c = msg.value;
            if (((tmr.phase == TimerPhase.Active) && (c > maxBid)) && payable(msg.sender) != beneficiary) {
                z_AuctionOpen_bid1_a = a;
                z_AuctionOpen_bid1_c += c;
                c = 0;
                require(c == 0, "coins not banked");
                skeleton = State.AuctionOpen_bid1__step1;
                tauClosure();
                return;
            }
        }
        revert("no transition enabled");
    }

    function tauClosure() private {
        bool progressed = true;
        while (progressed) {
            progressed = false;
            if (skeleton == State.AuctionOpen && (tmr.phase == TimerPhase.Fired)) {
                {
                    uint256 callValue = maxBid;
                    maxBid = 0;
                    coinLedger -= callValue;
                    (bool ok, ) = beneficiary.call{value: callValue}(abi.encodeWithSignature("winner(address)", maxBidder));
                    require(ok, "message refused");
                }
                skeleton = State.AuctionClosed;
                progressed = true;
                continue;
            }
            if (skeleton == State.AuctionOpen_bid1__step1) {
                {
                    uint256 callValue = maxBid;
                    maxBid = 0;
                    coinLedger -= callValue;
                    (bool ok, ) = maxBidder.call{value: callValue}(abi.encodeWithSignature("bid_lost()"));
                    require(ok, "message refused");
                }
                maxBidder = z_AuctionOpen_bid1_a;
                maxBid += z_AuctionOpen_bid1_c;
                z_AuctionOpen_bid1_c = 0;
                skeleton = State.AuctionOpen;
                progressed = true;
                continue;
            }
        }
    }

    receive() external payable {
        revert("direct transfers are not part of the protocol");
    }
}
