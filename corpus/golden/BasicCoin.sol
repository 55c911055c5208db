// SPDX-License-Identifier: MIT
// Generated from the BasicCoin state machine; do not edit.
pragma solidity ^0.8.19;

contract BasicCoin {
    enum State { Bank }
    enum TimerPhase { Off, Active, Fired }
    struct Timer { TimerPhase phase; uint256 remaining; }

    State public skeleton;
    uint256 private reentrancyCounter;
    uint256 private coinLedger;
    address payable public ownerAddr;
    address payable public immutable creatorAddr;
    uint256 public tokenSupplyRemaining = 1000;
    mapping(address => uint256) private accounts;
    mapping(address => bool) private accountsHas;

    modifier defended() {
        require(reentrancyCounter <= 1, "reentrancy limit");
        reentrancyCounter += 1;
        _;
        reentrancyCounter -= 1;
        require(heldCoins() == coinLedger, "coin conservation");
    }

    constructor() {
        ownerAddr = payable(msg.sender);
        creatorAddr = payable(msg.sender);
        skeleton = State.Bank;
    }

    function heldCoins() private view returns (uint256 total) {
        // coins inside maps are accounted for at their move sites
    }

    function requireSupply(uint256 n) private {
        require(tokenSupplyRemaining >= n, "supply exhausted");
        tokenSupplyRemaining -= n;
    }

    function register() external defended {
        if (skeleton == State.Bank) {
            address payable a = payable(msg.sender);
            if ((!accountsHas[a])) {
                requireSupply(10);
                accounts[a] += 10;
                skeleton = State.Bank;
                tauClosure();
                return;
            }
        }
        revert("no transition enabled");
    }

    function transfer(uint256 m0, address payable m1) external defended {
        if (skeleton == State.Bank) {
            address payable a = payable(msg.sender);
            uint256 x = m0;
            address payable b = m1;
            if ((accountsHas[a] && accountsHas[b]) && payable(msg.sender) != b) {
                require(accounts[a] >= x, "insufficient tokens");
                accounts[a] -= x;
                accounts[b] += x;
                skeleton = State.Bank;
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
        }
    }

    receive() external payable {
        revert("direct transfers are not part of the protocol");
    }
}
